// The Masstree network server (§5, §6.1): epoll event-loop workers with
// cross-connection batch formation.
//
// "Masstree uses network interfaces that support per-core receive and
//  transmit queues ... A single client message can include many queries."
//
// Each worker owns an epoll set of N nonblocking connections plus one
// StoreT::Session (thread context + log partition) — session-per-worker, not
// session-per-connection, so a worker serving hundreds of clients still pays
// one epoch slot and one log shard. Every worker serves any key from the one
// shared tree (the paper's case against partitioned routing, Figure 11). On
// every wakeup the worker
//
//   1. drains all readable connections into their per-connection rx buffers
//      (netframe::InBuffer; the decoder resumes across short reads),
//   2. parses every complete frame's ops in place — keys stay views into the
//      rx buffer, no allocation per request in steady state,
//   3. runs one op-run pipeline ACROSS connections: each connection
//      contributes its next maximal run of same-kind ops per round — reads
//      (kGet, kMultiGet) join the round's read batch, writes (kPut, kRemove,
//      kMultiPut) its write batch, scans/pings/rejections execute inline.
//      The read batch executes as Store::multiget_rows drives and the write
//      batch as Store::multiput drives (§4.8/PALM — both pipelined paths
//      apply to independent network clients, not just in-process callers).
//      Each connection still sees its own ops execute in order: it
//      contributes exactly one run per round, and the read batch executes
//      before the write batch,
//   4. encodes responses straight into per-connection tx rings and flushes
//      with writev; a connection whose client stops reading gets EPOLLOUT
//      re-arm and an rx pause above the tx high-water mark — never a blocked
//      worker thread, never an unbounded buffer.
//
// The listener is itself routed through worker 0's epoll set, so accept()
// never blocks anywhere: stop() wakes every worker via its eventfd, joins,
// and only then closes the listen fd (the shutdown/accept race of the old
// blocking server is structurally gone). When accept4 runs out of file
// descriptors, the listener's interest is dropped until a connection closes
// or kAcceptBackoffMs passes, so the level-triggered listener cannot spin
// worker 0.
//
// The backend contract (StoreT) is Store's batched seams and nothing else:
//   - Session(StoreT&, unsigned worker_id) with ti() (epoch slot, counters),
//   - multiget_rows(keys, rows, session): row pointers, read under the
//     caller's EpochGuard,
//   - multiput(span<PutOp>, session) over Store::PutOp: fills each op's
//     inserted/found, or sets rejected once the store is read-only,
//   - getrange(key, n, col, emit, session): scans, executed inline through
//     the engine's snapshot-batched ScanCursor (§3).

#ifndef MASSTREE_NET_SERVER_H_
#define MASSTREE_NET_SERVER_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "kvstore/store.h"
#include "net/framing.h"
#include "net/proto.h"
#include "util/timing.h"

namespace masstree {

template <typename StoreT = Store>
class BasicServer {
 public:
  struct Options {
    uint16_t port = 0;  // 0 = ephemeral
    unsigned workers = 2;
    // Backpressure: once a connection's tx ring holds more than tx_highwater
    // unflushed bytes, the worker stops reading (and so parsing/executing)
    // that connection until the client drains it below half the mark. Other
    // connections on the worker are unaffected.
    size_t tx_highwater = 1 << 20;
    // Idle-connection reaping (the slow-loris guard): a connection that has
    // not delivered a complete frame for this many milliseconds is closed by
    // its worker's periodic sweep (counted by Counter::kNetIdleReaped). A
    // half-sent frame does NOT count as activity — a peer trickling one byte
    // per sweep still gets reaped. 0 disables the sweep (default), keeping
    // epoll_wait fully blocking.
    uint64_t idle_timeout_ms = 0;
  };

  BasicServer(StoreT& store, Options opt) : store_(store), opt_(opt) {
    if (opt_.workers == 0) {
      opt_.workers = 1;
    }
  }

  ~BasicServer() { stop(); }

  void start() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
      throw std::runtime_error("Server: socket() failed");
    }
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(opt_.port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 512) != 0) {
      throw std::runtime_error("Server: bind/listen failed");
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);

    workers_.resize(opt_.workers);
    for (unsigned w = 0; w < opt_.workers; ++w) {
      workers_[w] = std::make_unique<Worker>(*this, w);
    }
    // The listener lives in worker 0's epoll set: accepts are just another
    // event, and there is no dedicated acceptor thread to race with close().
    workers_[0]->add_listener();
    for (unsigned w = 0; w < opt_.workers; ++w) {
      workers_[w]->thread = std::thread([this, w] { workers_[w]->run(); });
    }
  }

  void stop() {
    bool expected = false;
    if (!stopping_.compare_exchange_strong(expected, true)) {
      return;
    }
    for (auto& w : workers_) {
      if (w) {
        w->shutdown();
      }
    }
    for (auto& w : workers_) {
      if (w && w->thread.joinable()) {
        w->thread.join();
      }
    }
    // Every worker (including the accepting one) has exited its loop; only
    // now is closing the listen fd race-free.
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
  }

  uint16_t port() const { return port_; }
  uint64_t ops_served() const { return ops_served_.load(std::memory_order_relaxed); }
  // Cross-request batch formation telemetry: gets that reached Tree::multiget
  // through a formed batch coalescing >= 2 request ops, and the number of
  // such batches. (Workers also count Counter::kNetBatchedGets in their
  // sessions' ThreadCounters.)
  uint64_t batched_gets() const { return batched_[kRead].load(std::memory_order_relaxed); }
  uint64_t batches_formed() const { return formed_[kRead].load(std::memory_order_relaxed); }
  // The same for writes: puts/removes that reached Store::multiput through a
  // formed batch coalescing >= 2 request ops, and the number of such
  // batches. (Workers also count Counter::kNetBatchedPuts.)
  uint64_t batched_puts() const { return batched_[kWrite].load(std::memory_order_relaxed); }
  uint64_t wbatches_formed() const { return formed_[kWrite].load(std::memory_order_relaxed); }
  // Connections closed by the idle sweep (Options::idle_timeout_ms).
  uint64_t idle_reaped() const {
    return idle_reaped_.load(std::memory_order_relaxed);
  }

 private:
  // What a parsed op joins in a round: the read batch, the write batch, or
  // inline execution (scans, pings, empty frames, rejections).
  enum Kind : uint8_t { kRead = 0, kWrite = 1, kInline = 2 };

  // Accept backoff after EMFILE/ENFILE: long enough that a listener whose
  // pending connections cannot be accepted costs a few wakeups per second,
  // short enough that fds freed on other workers are picked up promptly.
  static constexpr int kAcceptBackoffMs = 10;

  struct Conn {
    int fd = -1;
    size_t idx = 0;  // position in Worker::conns
    netframe::InBuffer rx;
    netframe::TxRing tx;
    uint32_t events = 0;       // currently-armed epoll interest
    size_t parsed = 0;         // bytes parsed this wakeup, consumed post-batch
    bool eof = false;          // peer finished writing; flush then close
    bool proto_error = false;  // poisoned stream: kRejected frame, then close
    bool closing = false;      // close as soon as tx drains
    bool paused = false;       // rx interest dropped (tx over high water)
    bool queued = false;       // already on this wakeup's ready list
    bool dead = false;         // fd closed; reaped at end of wakeup
    uint64_t last_active_ns = 0;  // last complete frame (or adoption time)
  };

  // One parsed request op. Views point into the owning connection's rx
  // buffer; variable-length payloads (column ids, column updates, multiget
  // keys) live in the worker's reusable pools.
  struct ParsedOp {
    NetOp op = NetOp::kPing;
    bool rejected = false;     // parsed but refused (oversized multiget/scan)
    bool frame_end = false;    // last op of its frame: patch the length prefix
    bool empty_frame = false;  // zero-op frame: respond with an empty frame
    std::string_view key;
    uint32_t scan_limit = 0;
    uint16_t scan_col = 0;
    uint32_t cols_off = 0, cols_cnt = 0;  // -> cols_pool (kMultiPut: cols_off
                                          //    -> wcnt_pool per-key counts)
    uint32_t upd_off = 0, upd_cnt = 0;    // -> upd_pool
    uint32_t keys_off = 0, keys_cnt = 0;  // -> keys_pool
  };

  // A connection's slice of this wakeup's parsed ops, plus response-frame
  // assembly state (the u32 length prefix is reserved when the frame's first
  // result is encoded and patched at its last).
  struct ConnWork {
    Conn* c;
    uint32_t next, end;  // range in Worker::ops
    bool frame_open = false;
    uint64_t frame_len_pos = 0;
  };

  // One batched op's slot in its kind's batch: `n` entries starting at
  // batch_keys[off] (reads) or store_ops[off] (writes). Single-key ops
  // contribute one entry, kMultiGet/kMultiPut one per wire entry.
  struct RunRef {
    uint32_t work;  // -> works
    uint32_t opi;   // -> ops
    uint32_t off;
    uint32_t n;
  };

  struct Worker {
    Worker(BasicServer& server, unsigned id)
        : server(server), id(id), session(server.store_, id) {
      epfd = ::epoll_create1(EPOLL_CLOEXEC);
      wakefd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
      if (epfd < 0 || wakefd < 0) {
        throw std::runtime_error("Server: epoll_create1/eventfd failed");
      }
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = &wake_tag;
      ::epoll_ctl(epfd, EPOLL_CTL_ADD, wakefd, &ev);
    }

    ~Worker() {
      for (auto& c : conns) {
        if (!c->dead) {
          ::close(c->fd);
        }
      }
      for (int fd : pending) {
        ::close(fd);  // handed off but never adopted (shutdown won the race)
      }
      ::close(wakefd);
      ::close(epfd);
    }

    void add_listener() { set_listen_interest(EPOLLIN, EPOLL_CTL_ADD); }

    // Cross-thread handoff of a freshly-accepted fd from the accepting worker.
    void add_connection(int fd) {
      {
        std::lock_guard<std::mutex> lock(mu);
        pending.push_back(fd);
      }
      wake();
    }

    void wake() {
      uint64_t one = 1;
      ssize_t r = ::write(wakefd, &one, sizeof(one));
      (void)r;
    }

    void shutdown() {
      stop.store(true, std::memory_order_release);
      wake();
    }

    // ---- event loop ----------------------------------------------------
    void run() {
      epoll_event evs[128];
      // With idle reaping on, epoll_wait must return often enough for the
      // sweep to observe silence — a quarter of the window bounds reap
      // latency at 1.25x the configured timeout.
      int wait_ms = -1;
      if (server.opt_.idle_timeout_ms > 0) {
        uint64_t q = server.opt_.idle_timeout_ms / 4;
        wait_ms = static_cast<int>(q < 1 ? 1 : (q > 1000 ? 1000 : q));
      }
      last_idle_sweep_ns = now_ns();
      while (!stop.load(std::memory_order_acquire)) {
        int timeout = wait_ms;
        if (accept_paused && (timeout < 0 || timeout > kAcceptBackoffMs)) {
          timeout = kAcceptBackoffMs;  // the backoff must expire even when idle
        }
        int n = ::epoll_wait(epfd, evs, 128, timeout);
        if (n < 0) {
          if (errno == EINTR) {
            continue;
          }
          break;
        }
        for (int i = 0; i < n; ++i) {
          void* p = evs[i].data.ptr;
          if (p == &wake_tag) {
            drain_wake();
            adopt_pending();
            continue;
          }
          if (p == &listen_tag) {
            accept_ready();
            continue;
          }
          Conn* c = static_cast<Conn*>(p);
          if (c->dead) {
            continue;
          }
          uint32_t e = evs[i].events;
          if (e & (EPOLLHUP | EPOLLERR)) {
            close_conn(c);  // peer fully gone; nobody will read responses
            continue;
          }
          if (e & EPOLLOUT) {
            on_writable(c);
          }
          if (!c->dead && (e & EPOLLIN)) {
            on_readable(c);
          }
        }
        // Drain the ready list to empty: processing may unpause connections
        // whose buffered frames must run this wakeup (no new socket event
        // will re-announce bytes that are already in the rx buffer).
        while (!ready.empty()) {
          process();
        }
        reap();
        reap_idle();
        if (accept_paused &&
            now_ns() - accept_paused_ns >= kAcceptBackoffMs * 1000000ull) {
          resume_accept();
        }
      }
    }

   private:
    // ---- accept & adopt ------------------------------------------------
    void accept_ready() {
      for (;;) {
        int fd = ::accept4(server.listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
          if (errno == EMFILE || errno == ENFILE) {
            // The pending connection stays queued and the level-triggered
            // listener stays readable: stop listening until an fd frees up.
            accept_paused = true;
            accept_paused_ns = now_ns();
            set_listen_interest(0, EPOLL_CTL_MOD);
          }
          return;  // EAGAIN, or transient (ECONNABORTED): just stop
        }
        unsigned target = rr_next++ % static_cast<unsigned>(server.workers_.size());
        if (target == id) {
          adopt(fd);
        } else {
          server.workers_[target]->add_connection(fd);
        }
      }
    }

    void resume_accept() {
      accept_paused = false;
      set_listen_interest(EPOLLIN, EPOLL_CTL_MOD);
    }

    void set_listen_interest(uint32_t events, int op) {
      epoll_event ev{};
      ev.events = events;
      ev.data.ptr = &listen_tag;
      ::epoll_ctl(epfd, op, server.listen_fd_, &ev);
    }

    void drain_wake() {
      uint64_t v;
      ssize_t r = ::read(wakefd, &v, sizeof(v));
      (void)r;
    }

    void adopt_pending() {
      adopted.clear();
      {
        std::lock_guard<std::mutex> lock(mu);
        adopted.swap(pending);
      }
      for (int fd : adopted) {
        adopt(fd);
      }
    }

    void adopt(int fd) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto c = std::make_unique<Conn>();
      c->fd = fd;
      c->idx = conns.size();
      c->events = EPOLLIN;
      c->last_active_ns = now_ns();
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = c.get();
      if (::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        ::close(fd);
        return;
      }
      conns.push_back(std::move(c));
    }

    // ---- per-connection IO ---------------------------------------------
    // Read-side fairness: one connection may fill at most this much of its
    // rx buffer per wakeup; level-triggered epoll re-announces the rest.
    static constexpr size_t kReadBudget = 256 << 10;

    void on_readable(Conn* c) {
      if (c->paused || c->closing || c->proto_error || c->eof) {
        return;  // interest should be off; ignore a straggling event
      }
      size_t budget = kReadBudget;
      bool got = false;
      while (budget > 0) {
        size_t chunk = budget < (64 << 10) ? budget : (64 << 10);
        ssize_t r = c->rx.fill(c->fd, chunk);
        if (r > 0) {
          budget -= static_cast<size_t>(r);
          got = true;
          if (static_cast<size_t>(r) < chunk) {
            break;  // short read: drained; skip the EAGAIN probe (LT epoll
                    // re-announces anything that races in behind us)
          }
          continue;
        }
        if (r == 0) {
          c->eof = true;
          break;
        }
        if (errno == EINTR) {
          continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          break;
        }
        close_conn(c);  // hard error (ECONNRESET, ...): drop everything
        return;
      }
      if (got || c->eof) {
        queue_ready(c);
      }
    }

    void on_writable(Conn* c) {
      bool was_paused = c->paused;
      flush_and_update(c);
      if (!c->dead && was_paused && !c->paused && c->rx.size() > 0) {
        queue_ready(c);  // buffered frames can progress again
      }
    }

    void queue_ready(Conn* c) {
      if (!c->queued) {
        c->queued = true;
        ready.push_back(c);
      }
    }

    // Flush the tx ring as far as the socket allows, recompute backpressure
    // state, and re-arm epoll interest.
    void flush_and_update(Conn* c) {
      while (!c->tx.empty()) {
        ssize_t n = c->tx.flush(c->fd);
        if (n < 0) {
          if (errno == EINTR) {
            continue;
          }
          if (errno == EAGAIN || errno == EWOULDBLOCK) {
            break;
          }
          close_conn(c);
          return;
        }
        if (n == 0) {
          break;
        }
      }
      if (c->tx.empty() && c->closing) {
        close_conn(c);
        return;
      }
      if (c->closing) {
        c->paused = false;
      } else if (c->tx.size() > server.opt_.tx_highwater) {
        c->paused = true;  // stop reading this client until it drains us
      } else if (c->paused && c->tx.size() <= server.opt_.tx_highwater / 2) {
        c->paused = false;
      }
      update_interest(c);
    }

    void update_interest(Conn* c) {
      uint32_t want = 0;
      if (!c->paused && !c->closing && !c->proto_error && !c->eof) {
        want |= EPOLLIN;
      }
      if (!c->tx.empty()) {
        want |= EPOLLOUT;
      }
      if (want != c->events) {
        epoll_event ev{};
        ev.events = want;
        ev.data.ptr = c;
        ::epoll_ctl(epfd, EPOLL_CTL_MOD, c->fd, &ev);
        c->events = want;
      }
    }

    void close_conn(Conn* c) {
      if (c->dead) {
        return;
      }
      ::close(c->fd);  // also removes it from the epoll set
      c->dead = true;
      dying.push_back(c);
      if (accept_paused) {
        resume_accept();  // an fd just freed up for a backlogged connection
      }
    }

    void reap() {
      for (Conn* c : dying) {
        size_t i = c->idx;
        conns[i] = std::move(conns.back());
        conns[i]->idx = i;
        conns.pop_back();
      }
      dying.clear();
    }

    // The idle sweep: close every connection that has gone a full
    // idle_timeout_ms without completing a frame. Paced to a quarter of the
    // window so the scan cost stays negligible even with many connections.
    void reap_idle() {
      if (server.opt_.idle_timeout_ms == 0 || conns.empty()) {
        return;
      }
      uint64_t window_ns = server.opt_.idle_timeout_ms * 1000000ull;
      uint64_t now = now_ns();
      if (now - last_idle_sweep_ns < window_ns / 4) {
        return;
      }
      last_idle_sweep_ns = now;
      for (auto& cp : conns) {
        Conn* c = cp.get();
        if (c->dead || c->closing) {
          continue;  // already on its way out
        }
        if (now - c->last_active_ns >= window_ns) {
          session.ti().counters().inc(Counter::kNetIdleReaped);
          server.idle_reaped_.fetch_add(1, std::memory_order_relaxed);
          close_conn(c);
        }
      }
      reap();
    }

    // ---- parse ----------------------------------------------------------
    // Parses every complete frame buffered on c into the worker's op list.
    // Nothing is consumed yet: op keys are views into the rx buffer and must
    // survive until the batch executes. Returns bytes ready to consume.
    size_t parse_frames(Conn* c) {
      size_t consumed = 0;
      while (ops.size() < kRoundOpsBudget) {
        std::string_view body;
        size_t flen = 0;
        netframe::FrameStatus st =
            netframe::decode_frame(c->rx.view(), consumed, &body, &flen);
        if (st == netframe::FrameStatus::kNeedMore) {
          break;
        }
        if (st == netframe::FrameStatus::kTooBig || !parse_frame(body)) {
          // Oversized length prefix or malformed op body: the stream cannot
          // be resynchronized. The connection gets one kRejected frame and a
          // close; the worker and its other connections are untouched.
          c->proto_error = true;
          break;
        }
        consumed += flen;
      }
      return consumed;
    }

    // Parses one frame body's ops; on any malformed op, rolls the pools back
    // to the frame start and reports failure.
    bool parse_frame(std::string_view body) {
      size_t op_start = ops.size();
      size_t cols_start = cols_pool.size();
      size_t upd_start = upd_pool.size();
      size_t keys_start = keys_pool.size();
      size_t wcnt_start = wcnt_pool.size();
      netwire::Reader r(body);
      if (r.done()) {
        ParsedOp p;
        p.empty_frame = true;
        p.frame_end = true;
        ops.push_back(p);
        return true;
      }
      while (!r.done()) {
        if (!parse_op(r)) {
          ops.resize(op_start);
          cols_pool.resize(cols_start);
          upd_pool.resize(upd_start);
          keys_pool.resize(keys_start);
          wcnt_pool.resize(wcnt_start);
          return false;
        }
      }
      ops.back().frame_end = true;
      return true;
    }

    bool parse_op(netwire::Reader& r) {
      uint8_t opcode;
      if (!r.read(&opcode)) {
        return false;
      }
      ParsedOp p;
      p.op = static_cast<NetOp>(opcode);
      switch (p.op) {
        case NetOp::kGet: {
          uint32_t klen;
          uint16_t ncols;
          if (!r.read(&klen) || !r.read_bytes(klen, &p.key) || !r.read(&ncols)) {
            return false;
          }
          p.cols_off = static_cast<uint32_t>(cols_pool.size());
          p.cols_cnt = ncols;
          for (uint16_t i = 0; i < ncols; ++i) {
            uint16_t col;
            if (!r.read(&col)) {
              return false;
            }
            cols_pool.push_back(col);
          }
          break;
        }
        case NetOp::kPut: {
          uint32_t klen;
          uint16_t ncols;
          if (!r.read(&klen) || !r.read_bytes(klen, &p.key) || !r.read(&ncols)) {
            return false;
          }
          p.upd_off = static_cast<uint32_t>(upd_pool.size());
          p.upd_cnt = ncols;
          for (uint16_t i = 0; i < ncols; ++i) {
            uint16_t col;
            uint32_t len;
            std::string_view data;
            if (!r.read(&col) || !r.read(&len) || !r.read_bytes(len, &data)) {
              return false;
            }
            upd_pool.push_back(ColumnUpdate{col, data});
          }
          break;
        }
        case NetOp::kRemove: {
          uint32_t klen;
          if (!r.read(&klen) || !r.read_bytes(klen, &p.key)) {
            return false;
          }
          break;
        }
        case NetOp::kScan: {
          uint32_t klen;
          if (!r.read(&klen) || !r.read_bytes(klen, &p.key) || !r.read(&p.scan_limit) ||
              !r.read(&p.scan_col)) {
            return false;
          }
          p.rejected = p.scan_limit > kMaxScanLimit;
          break;
        }
        case NetOp::kPing:
          break;
        case NetOp::kMultiGet: {
          uint16_t ncols;
          if (!r.read(&ncols)) {
            return false;
          }
          p.cols_off = static_cast<uint32_t>(cols_pool.size());
          p.cols_cnt = ncols;
          for (uint16_t i = 0; i < ncols; ++i) {
            uint16_t col;
            if (!r.read(&col)) {
              return false;
            }
            cols_pool.push_back(col);
          }
          uint16_t count;
          if (!r.read(&count)) {
            return false;
          }
          p.keys_off = static_cast<uint32_t>(keys_pool.size());
          p.keys_cnt = count;
          for (uint16_t i = 0; i < count; ++i) {
            uint32_t klen;
            std::string_view key;
            if (!r.read(&klen) || !r.read_bytes(klen, &key)) {
              return false;
            }
            keys_pool.push_back(key);
          }
          p.rejected = count > kMaxMultigetBatch;
          break;
        }
        case NetOp::kMultiPut: {
          // A whole batch of puts in one op. Keys land in keys_pool, their
          // column updates back to back in upd_pool, and each key's update
          // count in wcnt_pool — per-key slices are reconstructed by walking
          // the counts. Over-cap batches parse fully (the rest of the frame
          // stays decodable) and are refused with kRejected.
          uint16_t count;
          if (!r.read(&count)) {
            return false;
          }
          p.keys_off = static_cast<uint32_t>(keys_pool.size());
          p.keys_cnt = count;
          p.upd_off = static_cast<uint32_t>(upd_pool.size());
          p.cols_off = static_cast<uint32_t>(wcnt_pool.size());
          for (uint16_t i = 0; i < count; ++i) {
            uint32_t klen;
            std::string_view key;
            uint16_t ncols;
            if (!r.read(&klen) || !r.read_bytes(klen, &key) || !r.read(&ncols)) {
              return false;
            }
            keys_pool.push_back(key);
            wcnt_pool.push_back(ncols);
            for (uint16_t c = 0; c < ncols; ++c) {
              uint16_t col;
              uint32_t len;
              std::string_view data;
              if (!r.read(&col) || !r.read(&len) || !r.read_bytes(len, &data)) {
                return false;
              }
              upd_pool.push_back(ColumnUpdate{col, data});
            }
          }
          p.upd_cnt = static_cast<uint32_t>(upd_pool.size()) - p.upd_off;
          p.rejected = count > kMaxMultigetBatch;
          break;
        }
        default:
          return false;  // unknown opcode: protocol error
      }
      ops.push_back(p);
      return true;
    }

    // ---- the batch former ----------------------------------------------
    // A round materializes at most this many parsed ops, keeping the round's
    // working set (op list, key pools, formed batch) cache-sized no matter
    // how many deeply-pipelined connections are readable at once. Parsing
    // stops at a frame boundary once the budget is spent; connections with
    // complete frames still buffered simply re-queue for the next round.
    static constexpr size_t kRoundOpsBudget = 32 << 10;

    void process() {
      plist.assign(ready.begin(), ready.end());
      ready.clear();
      ops.clear();
      cols_pool.clear();
      upd_pool.clear();
      keys_pool.clear();
      wcnt_pool.clear();
      works.clear();
      for (Conn* c : plist) {
        c->queued = false;
        c->parsed = 0;
        if (c->dead || c->closing || c->paused || c->proto_error) {
          continue;
        }
        if (ops.size() >= kRoundOpsBudget) {
          continue;  // round full; the post-execute sweep re-queues c
        }
        uint32_t begin = static_cast<uint32_t>(ops.size());
        c->parsed = parse_frames(c);
        if (c->parsed > 0) {
          // Only a COMPLETE frame counts as liveness; bytes trickling in
          // below a frame boundary never refresh the idle clock.
          c->last_active_ns = now_ns();
        }
        if (ops.size() > begin) {
          works.push_back(ConnWork{c, begin, static_cast<uint32_t>(ops.size()), false, 0});
        }
      }

      execute_rounds();

      for (Conn* c : plist) {
        if (c->dead) {
          continue;
        }
        if (c->parsed > 0) {
          c->rx.consume(c->parsed);  // op views die here, after execution
          c->parsed = 0;
        }
        if (c->proto_error && !c->closing) {
          uint64_t pos = c->tx.reserve_u32();
          c->tx.template put<uint8_t>(static_cast<uint8_t>(NetStatus::kRejected));
          c->tx.patch_u32(pos, 1);
          c->closing = true;
        }
        if (c->eof) {
          // Peer finished writing (a trailing partial frame is a mid-request
          // disconnect and is simply dropped); flush what we owe, then close.
          c->closing = true;
        }
        flush_and_update(c);
        if (!c->dead && !c->closing && !c->paused && has_complete_frame(c)) {
          queue_ready(c);  // frames left behind by the round budget
        }
      }
    }

    bool has_complete_frame(const Conn* c) const {
      std::string_view body;
      size_t flen = 0;
      return netframe::decode_frame(c->rx.view(), 0, &body, &flen) ==
             netframe::FrameStatus::kFrame;
    }

    // The op-run pipeline: every round, each connection contributes its next
    // maximal run of same-kind ops — reads to the shared read batch, writes
    // to the shared write batch, or inline ops executed on the spot. Per
    // connection, ops run strictly in order (one run per connection per
    // round, the read batch executing before the write batch), while reads
    // from MANY connections coalesce into one multiget and writes into one
    // multiput.
    void execute_rounds() {
      uint64_t executed = 0;
      bool more = true;
      while (more) {
        more = false;
        batch_keys.clear();
        store_ops.clear();
        refs[kRead].clear();
        refs[kWrite].clear();
        for (uint32_t w = 0; w < works.size(); ++w) {
          ConnWork& cw = works[w];
          if (cw.next >= cw.end || cw.c->dead) {
            continue;
          }
          more = true;
          Kind kind = classify(ops[cw.next]);
          for (; cw.next < cw.end && classify(ops[cw.next]) == kind; ++cw.next) {
            if (kind == kInline) {
              execute_inline(cw, ops[cw.next]);
              ++executed;
            } else {
              refs[kind].push_back(add_entries(kind, w, cw.next));
            }
          }
        }
        executed += execute_batch<kRead>();  // reads first: the order contract
        executed += execute_batch<kWrite>();
      }
      if (executed > 0) {
        server.ops_served_.fetch_add(executed, std::memory_order_relaxed);
      }
    }

    static Kind classify(const ParsedOp& p) {
      if (p.empty_frame || p.rejected) {
        return kInline;
      }
      switch (p.op) {
        case NetOp::kGet:
        case NetOp::kMultiGet:
          return kRead;
        case NetOp::kPut:
        case NetOp::kRemove:
        case NetOp::kMultiPut:
          return kWrite;
        default:
          return kInline;
      }
    }

    // Appends op `opi`'s entries to its kind's batch: keys for a read,
    // StoreT::PutOps for a write. Update spans point into upd_pool, which is
    // append-only until the round executes.
    RunRef add_entries(Kind kind, uint32_t work, uint32_t opi) {
      const ParsedOp& p = ops[opi];
      bool multi = p.op == NetOp::kMultiGet || p.op == NetOp::kMultiPut;
      uint32_t n = multi ? p.keys_cnt : 1;
      if (kind == kRead) {
        RunRef ref{work, opi, static_cast<uint32_t>(batch_keys.size()), n};
        if (multi) {
          batch_keys.insert(batch_keys.end(), keys_pool.begin() + p.keys_off,
                            keys_pool.begin() + p.keys_off + n);
        } else {
          batch_keys.push_back(p.key);
        }
        return ref;
      }
      RunRef ref{work, opi, static_cast<uint32_t>(store_ops.size()), n};
      uint32_t uo = p.upd_off;
      for (uint32_t i = 0; i < n; ++i) {
        typename StoreT::PutOp op;
        uint32_t cnt = multi ? wcnt_pool[p.cols_off + i] : p.upd_cnt;
        op.key = multi ? keys_pool[p.keys_off + i] : p.key;
        op.updates = std::span<const ColumnUpdate>(upd_pool.data() + uo, cnt);
        op.remove = p.op == NetOp::kRemove;
        store_ops.push_back(op);
        uo += cnt;
      }
      return ref;
    }

    // Executes one kind's formed batch in chunks of at most kMaxMultigetBatch
    // entries. A read chunk is one multiget_rows drive whose rows are encoded
    // inside its EpochGuard (rows are epoch-protected pointers); a write
    // chunk is one Store::multiput (its own guard and grouped log append),
    // whose per-op flags are encoded afterwards. Instantiated per kind, so
    // each batch loop compiles to only its own seam and encoder. Returns the
    // number of ops executed.
    template <Kind kind>
    size_t execute_batch() {
      const std::vector<RunRef>& rs = refs[kind];
      size_t entries = kind == kRead ? batch_keys.size() : store_ops.size();
      if (rs.size() >= 2) {
        session.ti().counters().inc(
            kind == kRead ? Counter::kNetBatchedGets : Counter::kNetBatchedPuts, entries);
        server.batched_[kind].fetch_add(entries, std::memory_order_relaxed);
        server.formed_[kind].fetch_add(1, std::memory_order_relaxed);
      }
      for (size_t b = 0; b < rs.size();) {
        // Every op fits a chunk on its own: kMultiGet/kMultiPut over the cap
        // were rejected at parse time.
        size_t e = b, n = 0;
        do {
          n += rs[e++].n;
        } while (e < rs.size() && n + rs[e].n <= kMaxMultigetBatch);
        size_t off = rs[b].off;
        if constexpr (kind == kRead) {
          batch_rows.resize(n);
          EpochGuard guard(session.ti().slot());
          server.store_.multiget_rows(
              std::span<const std::string_view>(batch_keys).subspan(off, n),
              batch_rows.data(), session);
          encode_refs<kind>(b, e, off);
        } else {
          server.store_.multiput(
              std::span<typename StoreT::PutOp>(store_ops).subspan(off, n), session);
          encode_refs<kind>(b, e, off);
        }
        b = e;
      }
      return rs.size();
    }

    // Encodes the responses of refs[kind][b, e), a chunk whose entries start
    // at `chunk_off` (batch_rows holds the read chunk's rows).
    template <Kind kind>
    void encode_refs(size_t b, size_t e, size_t chunk_off) {
      for (size_t r = b; r < e; ++r) {
        const RunRef& ref = refs[kind][r];
        ConnWork& cw = works[ref.work];
        if (cw.c->dead) {
          continue;
        }
        const ParsedOp& p = ops[ref.opi];
        open_frame(cw);
        if constexpr (kind == kRead) {
          encode_read(cw.c->tx, p, batch_rows.data() + (ref.off - chunk_off), ref.n);
        } else {
          encode_write(cw.c->tx, p, store_ops.data() + ref.off, ref.n);
        }
        maybe_close_frame(cw, p);
      }
    }

    // kGet: status 0 + row, or kNotFound. kMultiGet: status 0, count, then
    // per key a found byte (1 + row, or 0).
    void encode_read(netframe::TxRing& tx, const ParsedOp& p, const Row* const* rows,
                     uint32_t n) {
      if (p.op == NetOp::kGet) {
        if (rows[0] == nullptr) {
          tx.template put<uint8_t>(static_cast<uint8_t>(NetStatus::kNotFound));
          return;
        }
        tx.template put<uint8_t>(0);
        encode_row(tx, rows[0], p.cols_off, p.cols_cnt);
        return;
      }
      tx.template put<uint8_t>(0);
      tx.template put<uint16_t>(static_cast<uint16_t>(n));
      for (uint32_t i = 0; i < n; ++i) {
        tx.template put<uint8_t>(rows[i] != nullptr ? 1 : 0);
        if (rows[i] != nullptr) {
          encode_row(tx, rows[i], p.cols_off, p.cols_cnt);
        }
      }
    }

    // The selected columns (all when cols_cnt == 0), count-prefixed.
    void encode_row(netframe::TxRing& tx, const Row* row, uint32_t cols_off,
                    uint32_t cols_cnt) {
      uint32_t ncols = cols_cnt == 0 ? row->ncols() : cols_cnt;
      tx.template put<uint16_t>(static_cast<uint16_t>(ncols));
      for (uint32_t i = 0; i < ncols; ++i) {
        std::string_view v = row->col(cols_cnt == 0 ? i : cols_pool[cols_off + i]);
        tx.template put<uint32_t>(static_cast<uint32_t>(v.size()));
        tx.append(v);
      }
    }

    // kPut: status 0 + inserted byte; kRemove: status 0 or kNotFound;
    // kMultiPut: status 0, count, per-entry inserted bytes. Ops the store
    // refused because it had degraded to read-only answer kReadOnly with no
    // payload — the connection lives on, and its reads keep working.
    static void encode_write(netframe::TxRing& tx, const ParsedOp& p,
                             const typename StoreT::PutOp* o, uint32_t n) {
      for (uint32_t i = 0; i < n; ++i) {
        if (o[i].rejected) {
          tx.template put<uint8_t>(static_cast<uint8_t>(NetStatus::kReadOnly));
          return;
        }
      }
      if (p.op == NetOp::kRemove) {
        tx.template put<uint8_t>(o[0].found ? 0 : static_cast<uint8_t>(NetStatus::kNotFound));
        return;
      }
      tx.template put<uint8_t>(0);
      if (p.op == NetOp::kMultiPut) {
        tx.template put<uint16_t>(static_cast<uint16_t>(n));
      }
      for (uint32_t i = 0; i < n; ++i) {
        tx.template put<uint8_t>(o[i].inserted ? 1 : 0);
      }
    }

    // ---- inline ops (scans, pings, empty frames, rejections) -----------
    void execute_inline(ConnWork& cw, const ParsedOp& p) {
      netframe::TxRing& tx = cw.c->tx;
      open_frame(cw);
      if (p.empty_frame) {
        maybe_close_frame(cw, p);
        return;
      }
      if (p.rejected) {
        // Parsed (the rest of the frame stays decodable) but refused.
        tx.template put<uint8_t>(static_cast<uint8_t>(NetStatus::kRejected));
        maybe_close_frame(cw, p);
        return;
      }
      tx.template put<uint8_t>(0);
      if (p.op == NetOp::kScan) {
        uint64_t count_pos = tx.reserve_u32();
        uint32_t count = 0;
        // Streams whole border-node snapshots from the store's ScanCursor;
        // each emitted pair is encoded straight into the tx ring.
        server.store_.getrange(
            p.key, p.scan_limit, p.scan_col,
            [&](std::string_view k, std::string_view v, const Row*) {
              tx.template put<uint32_t>(static_cast<uint32_t>(k.size()));
              tx.append(k);
              tx.template put<uint32_t>(static_cast<uint32_t>(v.size()));
              tx.append(v);
              ++count;
              return true;
            },
            session);
        tx.patch_u32(count_pos, count);
      }  // kPing: the status byte is the whole answer
      maybe_close_frame(cw, p);
    }

    void open_frame(ConnWork& cw) {
      if (!cw.frame_open) {
        cw.frame_len_pos = cw.c->tx.reserve_u32();
        cw.frame_open = true;
      }
    }

    void maybe_close_frame(ConnWork& cw, const ParsedOp& p) {
      if (p.frame_end) {
        cw.c->tx.patch_u32(
            cw.frame_len_pos,
            static_cast<uint32_t>(cw.c->tx.end() - cw.frame_len_pos - sizeof(uint32_t)));
        cw.frame_open = false;
      }
    }

   public:
    BasicServer& server;
    unsigned id;
    typename StoreT::Session session;
    std::thread thread;
    std::atomic<bool> stop{false};

   private:
    int epfd = -1;
    int wakefd = -1;
    char wake_tag = 0;    // epoll data tags (address identity only)
    char listen_tag = 0;
    unsigned rr_next = 0;  // accepting worker's round-robin cursor
    bool accept_paused = false;  // listener interest dropped after EMFILE/ENFILE
    uint64_t accept_paused_ns = 0;
    uint64_t last_idle_sweep_ns = 0;
    std::mutex mu;
    std::vector<int> pending;  // accepted fds handed off by worker 0
    std::vector<std::unique_ptr<Conn>> conns;
    // Reusable per-wakeup scratch: capacity persists, so the steady state
    // parses and batches without allocating.
    std::vector<int> adopted;
    std::vector<Conn*> ready, plist, dying;
    std::vector<ParsedOp> ops;
    std::vector<unsigned> cols_pool;
    std::vector<ColumnUpdate> upd_pool;
    std::vector<std::string_view> keys_pool;
    std::vector<uint32_t> wcnt_pool;  // kMultiPut per-key column counts
    std::vector<ConnWork> works;
    std::vector<RunRef> refs[2];  // the round's batches, indexed by Kind
    std::vector<std::string_view> batch_keys;
    std::vector<const Row*> batch_rows;
    std::vector<typename StoreT::PutOp> store_ops;
  };

  StoreT& store_;
  Options opt_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> ops_served_{0};
  std::atomic<uint64_t> batched_[2]{};  // entries in formed batches, by Kind
  std::atomic<uint64_t> formed_[2]{};   // batches coalescing >= 2 ops, by Kind
  std::atomic<uint64_t> idle_reaped_{0};
};

using Server = BasicServer<Store>;

}  // namespace masstree

#endif  // MASSTREE_NET_SERVER_H_
