// Incremental, allocation-free-in-steady-state framing for the event-loop
// server (§6.1).
//
// The blocking server could lean on std::string append/erase per read; an
// event-loop worker that owns hundreds of connections cannot — every
// connection keeps a reusable rx buffer (InBuffer) the decoder resumes over
// across arbitrarily short reads, and a reusable circular tx buffer (TxRing)
// responses are encoded straight into and flushed with writev. Neither
// allocates once grown to its high-water mark; MaxScale's protocol modules
// (incremental packet assembly decoupled from execution) are the model.
//
// Decoding is a pure function over buffered bytes: decode_frame() never
// consumes — the server parses complete frames in place (op keys stay views
// into the rx buffer while a batch forms) and consumes only after the batch
// executed.

#ifndef MASSTREE_NET_FRAMING_H_
#define MASSTREE_NET_FRAMING_H_

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>

#include "net/proto.h"

namespace masstree {
namespace netframe {

// ---------------------------------------------------------------------------
// Frame decoding over buffered bytes. `buf` is everything received so far
// (starting at `offset` into it); a complete frame's body is returned without
// consuming. kTooBig is a protocol error: the u32 length prefix exceeds
// kMaxFrameBody, so the stream can never be resynchronized (the server
// replies kRejected and closes that connection — the worker, and every other
// connection it owns, keeps running).
enum class FrameStatus : uint8_t {
  kNeedMore = 0,  // no complete frame at offset yet
  kFrame = 1,     // *body / *frame_len are valid
  kTooBig = 2,    // length prefix exceeds kMaxFrameBody
};

inline FrameStatus decode_frame(std::string_view buf, size_t offset,
                                std::string_view* body, size_t* frame_len) {
  if (buf.size() - offset < sizeof(uint32_t)) {
    return FrameStatus::kNeedMore;
  }
  uint32_t len;
  std::memcpy(&len, buf.data() + offset, sizeof(len));
  if (len > kMaxFrameBody) {
    return FrameStatus::kTooBig;
  }
  if (buf.size() - offset < sizeof(uint32_t) + len) {
    return FrameStatus::kNeedMore;
  }
  *body = buf.substr(offset + sizeof(uint32_t), len);
  *frame_len = sizeof(uint32_t) + len;
  return FrameStatus::kFrame;
}

// ---------------------------------------------------------------------------
// InBuffer: a connection's receive buffer. Linear (parsers need contiguous
// views into frame bodies), compacting, and reused for the connection's
// lifetime — steady state does no allocation and no per-byte work beyond the
// one memmove when a partial frame straddles the compaction point.
//
// View invalidation contract: fill() may compact or grow (moving bytes);
// data()/views are only stable between a fill() and the next fill()/
// consume() — exactly the window the server parses and executes in.
class InBuffer {
 public:
  explicit InBuffer(size_t initial_capacity = 16 << 10)
      : cap_(initial_capacity), buf_(new char[cap_]) {}

  const char* data() const { return buf_.get() + head_; }
  size_t size() const { return tail_ - head_; }
  std::string_view view() const { return std::string_view(data(), size()); }
  size_t capacity() const { return cap_; }

  // Drop n consumed bytes from the front.
  void consume(size_t n) {
    head_ += n;
    if (head_ == tail_) {
      head_ = tail_ = 0;  // free reset: the common all-consumed case
    }
  }

  // Read once from fd into the tail, making room first (compact, then grow —
  // growth is capped by the frame limit, so a hostile length prefix cannot
  // balloon the buffer). Returns read()'s result (n > 0 bytes appended, 0 on
  // EOF, -1 with errno on error/EAGAIN).
  ssize_t fill(int fd, size_t max_read) {
    make_room(max_read);
    size_t room = cap_ - tail_;
    ssize_t n = ::read(fd, buf_.get() + tail_, room < max_read ? room : max_read);
    if (n > 0) {
      tail_ += static_cast<size_t>(n);
    }
    return n;
  }

  // Test seam: append bytes as if they arrived from the socket.
  void append(std::string_view bytes) {
    make_room(bytes.size());
    std::memcpy(buf_.get() + tail_, bytes.data(), bytes.size());
    tail_ += bytes.size();
  }

 private:
  void make_room(size_t want) {
    if (cap_ - tail_ >= want) {
      return;
    }
    if (cap_ - size() >= want) {
      // Compact: slide the partial frame to the front.
      std::memmove(buf_.get(), buf_.get() + head_, size());
      tail_ -= head_;
      head_ = 0;
      return;
    }
    size_t need = size() + want;
    size_t ncap = cap_;
    while (ncap < need) {
      ncap *= 2;
    }
    std::unique_ptr<char[]> nbuf(new char[ncap]);
    std::memcpy(nbuf.get(), buf_.get() + head_, size());
    buf_ = std::move(nbuf);
    cap_ = ncap;
    tail_ -= head_;
    head_ = 0;
  }

  size_t cap_;
  size_t head_ = 0, tail_ = 0;  // valid bytes live in [head_, tail_)
  std::unique_ptr<char[]> buf_;
};

// ---------------------------------------------------------------------------
// TxRing: a connection's transmit buffer. Circular — contents may wrap, so a
// flush gathers up to two spans with one writev — with absolute (monotone
// u64) positions, which makes the response-frame length patch trivial:
// reserve_u32() returns the position of a 4-byte placeholder, patch_u32()
// fills it in once the frame's last op result has been encoded, wrap or no
// wrap. Grows only when an encoded burst exceeds the current capacity
// (power-of-two), then is reused forever: steady state allocates nothing.
class TxRing {
 public:
  explicit TxRing(size_t initial_capacity = 16 << 10)
      : cap_(round_up_pow2(initial_capacity)), buf_(new char[cap_]) {}

  size_t size() const { return tail_ - head_; }
  bool empty() const { return head_ == tail_; }
  uint64_t end() const { return tail_; }

  void append(const void* p, size_t n) {
    ensure(n);
    const char* src = static_cast<const char*>(p);
    while (n > 0) {
      size_t idx = index(tail_);
      size_t run = cap_ - idx;
      if (run > n) {
        run = n;
      }
      std::memcpy(buf_.get() + idx, src, run);
      tail_ += run;
      src += run;
      n -= run;
    }
  }

  void append(std::string_view s) { append(s.data(), s.size()); }

  template <typename T>
  void put(T v) {
    append(&v, sizeof(T));
  }

  // Append a 4-byte placeholder (frame length / scan count) and return its
  // absolute position for a later patch.
  uint64_t reserve_u32() {
    uint64_t pos = tail_;
    put<uint32_t>(0);
    return pos;
  }

  void patch_u32(uint64_t pos, uint32_t v) {
    char bytes[sizeof(uint32_t)];
    std::memcpy(bytes, &v, sizeof(v));
    for (size_t i = 0; i < sizeof(uint32_t); ++i) {
      buf_[index(pos + i)] = bytes[i];
    }
  }

  uint8_t peek_u8(uint64_t pos) const { return static_cast<uint8_t>(buf_[index(pos)]); }

  // Gather the buffered (possibly wrapped) bytes into at most two iovecs.
  // Returns the iovec count (0 when empty).
  int gather(iovec iov[2]) const {
    if (empty()) {
      return 0;
    }
    size_t hi = index(head_);
    size_t first = cap_ - hi;
    if (first >= size()) {
      iov[0] = {buf_.get() + hi, size()};
      return 1;
    }
    iov[0] = {buf_.get() + hi, first};
    iov[1] = {buf_.get(), size() - first};
    return 2;
  }

  // One gathered write toward fd (sendmsg: writev semantics plus
  // MSG_NOSIGNAL — a peer that closed mid-response must surface as EPIPE to
  // the event loop, not SIGPIPE the process); consumes what the kernel took.
  // Returns -1 with errno untouched on error/EAGAIN.
  ssize_t flush(int fd) {
    iovec iov[2];
    int cnt = gather(iov);
    if (cnt == 0) {
      return 0;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(cnt);
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      // Positions stay absolute (monotone) even once drained, so outstanding
      // reserve_u32 positions remain unique and patchable.
      head_ += static_cast<size_t>(n);
    }
    return n;
  }

  // Test seam: copy out the buffered bytes without consuming.
  void peek(std::string* out) const {
    iovec iov[2];
    int cnt = gather(iov);
    out->clear();
    for (int i = 0; i < cnt; ++i) {
      out->append(static_cast<const char*>(iov[i].iov_base), iov[i].iov_len);
    }
  }

  size_t capacity() const { return cap_; }

 private:
  static size_t round_up_pow2(size_t v) {
    size_t p = 64;
    while (p < v) {
      p *= 2;
    }
    return p;
  }

  size_t index(uint64_t pos) const { return static_cast<size_t>(pos) & (cap_ - 1); }

  void ensure(size_t n) {
    if (cap_ - size() >= n) {
      return;
    }
    size_t ncap = cap_;
    while (ncap - size() < n) {
      ncap *= 2;
    }
    // Re-home every byte at its absolute position modulo the new capacity:
    // outstanding reserve_u32 positions stay patchable across the growth.
    std::unique_ptr<char[]> nbuf(new char[ncap]);
    for (uint64_t pos = head_; pos < tail_;) {
      size_t src = index(pos);
      size_t dst = static_cast<size_t>(pos) & (ncap - 1);
      size_t run = cap_ - src;
      if (run > ncap - dst) {
        run = ncap - dst;
      }
      if (run > static_cast<size_t>(tail_ - pos)) {
        run = static_cast<size_t>(tail_ - pos);
      }
      std::memcpy(nbuf.get() + dst, buf_.get() + src, run);
      pos += run;
    }
    buf_ = std::move(nbuf);
    cap_ = ncap;
  }

  size_t cap_;
  uint64_t head_ = 0, tail_ = 0;  // absolute positions; data in [head_, tail_)
  std::unique_ptr<char[]> buf_;
};

}  // namespace netframe
}  // namespace masstree

#endif  // MASSTREE_NET_FRAMING_H_
