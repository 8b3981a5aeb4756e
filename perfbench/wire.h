// The load generator: one thread driving up to kConns non-blocking loopback
// connections. Requests are encoded with netwire::encode_* and responses
// decoded with netframe::decode_frame + netwire::Reader; the blocking Client
// is not used (it allocates for every result).
//
// Two load loops share the connection plumbing:
//   closed_loop — every connection keeps a fixed number of frames in flight
//                 and replaces each one as its response arrives;
//   open_loop   — one frame per request, sent at Poisson arrival times fixed
//                 in advance; latency runs from the intended send time, so a
//                 stall is charged to every request it delays.

#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "net/framing.h"
#include "net/proto.h"
#include "stats.h"

namespace perfbench {

inline double thread_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_THREAD, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

inline double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

// How long a loop waits for outstanding responses after it stops issuing;
// whatever is still missing then counts as lost.
inline constexpr int64_t kDrainNs = 10'000'000'000;

// One in-flight request frame.
struct Pending {
  int64_t intended = 0;  // open loop: scheduled send time; closed loop: encode start
  int64_t enc_start = 0;
  int64_t enc_end = 0;
  int64_t send_start = 0;
  int64_t send_end = 0;
  uint64_t first = 0;    // caller's tag: first op index of the frame
  uint32_t nops = 0;
};

// Fixed-capacity FIFO of Pending (responses arrive in request order).
class PendingRing {
 public:
  explicit PendingRing(size_t cap_pow2 = 1 << 16) : v_(cap_pow2), mask_(cap_pow2 - 1) {}
  bool full() const { return tail_ - head_ == v_.size(); }
  bool empty() const { return tail_ == head_; }
  Pending& push() { return v_[tail_++ & mask_]; }
  Pending& front() { return v_[head_ & mask_]; }
  Pending& at(size_t seq) { return v_[seq & mask_]; }
  void pop() { ++head_; }
  size_t head() const { return head_; }
  size_t tail() const { return tail_; }

 private:
  std::vector<Pending> v_;
  size_t mask_;
  size_t head_ = 0;
  size_t tail_ = 0;
};

struct Conn {
  int fd = -1;
  bool dead = false;
  std::string tx;
  size_t tx_sent = 0;
  size_t unsent = 0;  // ring seq of the first frame not yet handed to send()
  std::vector<char> rx = std::vector<char>(1 << 20);
  size_t rx_len = 0;
  PendingRing pending;

  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() {
    if (fd >= 0) {
      ::close(fd);
    }
  }

  void connect_to(uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      throw std::runtime_error("socket() failed");
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw std::runtime_error("connect() failed");
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  // Starts a frame in tx; returns the offset to pass to end_frame.
  size_t begin_frame() {
    size_t at = tx.size();
    tx.append(4, '\0');
    return at;
  }
  void end_frame(size_t at) {
    uint32_t len = static_cast<uint32_t>(tx.size() - at - 4);
    std::memcpy(tx.data() + at, &len, 4);
  }

  // Hands unsent bytes to the kernel; returns false if the peer is gone.
  bool flush() {
    while (tx_sent < tx.size()) {
      ssize_t n = ::send(fd, tx.data() + tx_sent, tx.size() - tx_sent,
                         MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        tx_sent += static_cast<size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      } else {
        dead = true;
        return false;
      }
    }
    tx.clear();
    tx_sent = 0;
    return true;
  }

  // Reads what is available and calls on_frame(pending, body) for every
  // complete response frame. Returns false if the peer is gone.
  template <typename F>
  bool receive(F&& on_frame) {
    for (;;) {
      if (rx_len == rx.size()) {
        rx.resize(rx.size() * 2);
      }
      ssize_t n = ::recv(fd, rx.data() + rx_len, rx.size() - rx_len, MSG_DONTWAIT);
      if (n > 0) {
        rx_len += static_cast<size_t>(n);
        if (rx_len < rx.size()) {
          break;
        }
        continue;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      }
      dead = true;
      return false;
    }
    std::string_view buf(rx.data(), rx_len);
    size_t off = 0;
    std::string_view body;
    size_t flen = 0;
    for (;;) {
      auto st = masstree::netframe::decode_frame(buf, off, &body, &flen);
      if (st == masstree::netframe::FrameStatus::kTooBig) {
        dead = true;
        return false;
      }
      if (st != masstree::netframe::FrameStatus::kFrame) {
        break;
      }
      if (pending.empty()) {
        dead = true;  // a response nobody asked for
        return false;
      }
      on_frame(pending.front(), body);
      pending.pop();
      off += flen;
    }
    if (off > 0) {
      std::memmove(rx.data(), rx.data() + off, rx_len - off);
      rx_len -= off;
    }
    return true;
  }
};

// Sleeps until fd readiness or `timeout_ns`, whichever comes first.
inline void wait_readable(std::vector<Conn>& conns, int64_t timeout_ns) {
  pollfd fds[8];
  nfds_t n = 0;
  for (Conn& c : conns) {
    if (!c.dead) {
      fds[n].fd = c.fd;
      fds[n].events = static_cast<short>(POLLIN | (c.tx.empty() ? 0 : POLLOUT));
      fds[n].revents = 0;
      ++n;
    }
  }
  timespec ts{static_cast<time_t>(timeout_ns / 1000000000),
              static_cast<long>(timeout_ns % 1000000000)};
  ::ppoll(fds, n, &ts, nullptr);
}

// ---------------------------------------------------------------------------
// Closed loop. `source` supplies frames:
//   bool has_more()               — false once the source has no more work;
//   void encode(Conn&, Pending&)  — append one frame to conn.tx;
//   void complete(const Pending&, std::string_view body, int64_t done_ns)
//                                 — check one response frame;
//   void lost(const Pending&)     — the frame's connection died or timed out.
// Issues until `deadline_ns` (or the source runs dry), then drains.
template <typename Source>
void closed_loop(std::vector<Conn>& conns, unsigned depth, int64_t deadline_ns, Source& source) {
  bool issuing = true;
  auto issue = [&](Conn& c) {
    if (issuing && !source.has_more()) {
      issuing = false;
    }
    if (!issuing || c.dead || c.pending.full()) {
      return;
    }
    Pending& p = c.pending.push();
    p = Pending{};
    p.intended = now_ns();
    p.enc_start = p.intended;
    source.encode(c, p);
    p.enc_end = now_ns();
  };
  for (Conn& c : conns) {
    for (unsigned d = 0; d < depth; ++d) {
      issue(c);
    }
    int64_t t0 = now_ns();
    c.flush();
    int64_t t1 = now_ns();
    for (size_t s = c.unsent; s < c.pending.tail(); ++s) {
      c.pending.at(s).send_start = t0;
      c.pending.at(s).send_end = t1;
    }
    c.unsent = c.pending.tail();
  }
  const int64_t drain_limit =
      deadline_ns > INT64_MAX - kDrainNs ? INT64_MAX : deadline_ns + kDrainNs;
  for (;;) {
    int64_t now = now_ns();
    if (now >= deadline_ns) {
      issuing = false;
    }
    bool outstanding = false;
    for (Conn& c : conns) {
      if (!c.dead && !c.pending.empty()) {
        outstanding = true;
      }
    }
    if (!outstanding || now >= drain_limit) {
      break;
    }
    wait_readable(conns, 1'000'000);
    for (Conn& c : conns) {
      if (c.dead) {
        continue;
      }
      size_t before = c.pending.head();
      bool alive = c.receive([&](Pending& p, std::string_view body) {
        source.complete(p, body, now_ns());
      });
      size_t done = c.pending.head() - before;
      for (size_t i = 0; alive && i < done; ++i) {
        issue(c);
      }
      if (c.unsent < c.pending.tail()) {
        int64_t t0 = now_ns();
        alive = c.flush() && alive;
        int64_t t1 = now_ns();
        for (size_t s = c.unsent; s < c.pending.tail(); ++s) {
          c.pending.at(s).send_start = t0;
          c.pending.at(s).send_end = t1;
        }
        c.unsent = c.pending.tail();
      } else if (!c.tx.empty()) {
        alive = c.flush() && alive;
      }
    }
  }
  for (Conn& c : conns) {
    while (!c.pending.empty()) {
      source.lost(c.pending.front());
      c.pending.pop();
    }
    c.unsent = c.pending.tail();
  }
}

// ---------------------------------------------------------------------------
// Open loop. `at` holds arrival offsets (ns from start); request i goes to
// connection i % conns as its own frame. `source` is as for closed_loop,
// except encode(Conn&, Pending&) is called with p.first = first + i and must
// encode exactly one frame (has_more is not consulted). Lag (send call minus
// intended time) goes to `lag`.
template <typename Source>
void open_loop(std::vector<Conn>& conns, const std::vector<int64_t>& at, size_t first,
               int64_t start_ns, Source& source, Histogram& lag) {
  const size_t n = at.size();
  const int64_t end_ns = start_ns + (n == 0 ? 0 : at.back());
  const int64_t drain_limit = end_ns + kDrainNs;
  size_t next = 0;
  for (;;) {
    int64_t now = now_ns();
    while (next < n && start_ns + at[next] <= now) {
      Conn& c = conns[next % conns.size()];
      if (c.dead || c.pending.full()) {
        Pending p{};
        p.first = first + next;
        p.nops = 1;
        source.lost(p);
      } else {
        Pending& p = c.pending.push();
        p = Pending{};
        p.intended = start_ns + at[next];
        p.first = first + next;
        p.nops = 1;
        p.enc_start = now_ns();
        source.encode(c, p);
        p.enc_end = now_ns();
      }
      ++next;
    }
    for (Conn& c : conns) {
      if (!c.dead && c.unsent < c.pending.tail()) {
        int64_t t0 = now_ns();
        c.flush();
        int64_t t1 = now_ns();
        for (size_t s = c.unsent; s < c.pending.tail(); ++s) {
          Pending& p = c.pending.at(s);
          p.send_start = t0;
          p.send_end = t1;
          lag.record(static_cast<uint64_t>(std::max<int64_t>(0, t0 - p.intended)));
        }
        c.unsent = c.pending.tail();
      } else if (!c.dead && !c.tx.empty()) {
        c.flush();
      }
    }
    bool outstanding = false;
    for (Conn& c : conns) {
      if (c.dead) {
        continue;
      }
      c.receive([&](Pending& p, std::string_view body) { source.complete(p, body, now_ns()); });
      outstanding = outstanding || !c.pending.empty();
    }
    now = now_ns();
    if (next == n && (!outstanding || now >= drain_limit)) {
      break;
    }
    // Sleep in the kernel while the next arrival is comfortably far off;
    // spin through the last stretch so sends leave on time.
    int64_t until = next < n ? start_ns + at[next] : now + 1'000'000;
    if (until - now > 60'000) {
      wait_readable(conns, until - now - 50'000);
    }
  }
  for (Conn& c : conns) {
    while (!c.pending.empty()) {
      source.lost(c.pending.front());
      c.pending.pop();
    }
    c.unsent = c.pending.tail();
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
