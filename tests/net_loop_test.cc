// Event-loop server integration tests (§6.1): many pipelining clients
// oracle-diffed against std::map shadows, connection churn under concurrent
// writes, slow-reader backpressure isolation, cross-connection batch
// formation for reads AND writes (Counter::kNetBatchedGets /
// kNetBatchedPuts), clean start/stop cycles against the acceptor shutdown
// race, no accept spin when the process runs out of file descriptors,
// slow-loris idle-connection reaping, and read-only degraded serving over the
// wire after a sticky log I/O error.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/wait.h>

#include <atomic>
#include <cerrno>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "kvstore/store.h"
#include "net/client.h"
#include "net/proto.h"
#include "net/server.h"
#include "support/test_support.h"
#include "util/io.h"

namespace masstree {
namespace {

using test_support::ChurnDriver;
using test_support::seeded_rng;

class NetLoopTest : public ::testing::Test {
 protected:
  void StartServer(unsigned workers, size_t tx_highwater = 1 << 20) {
    server_ = std::make_unique<Server>(store_, Server::Options{0, workers, tx_highwater});
    server_->start();
  }
  void TearDown() override {
    if (server_) {
      server_->stop();
    }
  }

  Store store_;
  std::unique_ptr<Server> server_;
};

// ---------------------------------------------------------------------------
// Many concurrent pipelining clients, each diffed against its own std::map
// shadow. Frames mix single-key ops with kMultiGet and kMultiPut (repeated
// keys included), so single-key and multi-key ops from one connection share
// the read and write batches. Every expected outcome is computed at send()
// time (before the response exists), so a response that is reordered,
// dropped, duplicated, or attributed to the wrong frame fails the diff.
TEST_F(NetLoopTest, PipelinedClientsOracleDiff) {
  StartServer(2);
  constexpr int kClients = 4, kFrames = 300, kDepth = 4;
  std::atomic<int> errors{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      Rng rng = seeded_rng(0x4C4F4F50ull + static_cast<uint64_t>(t));  // "LOOP"
      Client c(server_->port());
      std::map<std::string, std::string> oracle;
      struct ExpectedOp {
        NetOp op;
        bool flag;          // put: inserted; remove: removed; get: found
        std::string value;  // get: expected column 0
        // kMultiGet: per key (found, column 0); kMultiPut: per entry
        // (inserted, unused).
        std::vector<std::pair<bool, std::string>> batch;
      };
      std::deque<std::vector<ExpectedOp>> expected;

      auto check = [&](const std::vector<Client::Result>& res,
                       const std::vector<ExpectedOp>& exp) {
        if (res.size() != exp.size()) {
          ++errors;
          return;
        }
        for (size_t i = 0; i < res.size(); ++i) {
          bool ok = true;
          switch (exp[i].op) {
            case NetOp::kPut:
              ok = res[i].status == NetStatus::kOk && res[i].inserted == exp[i].flag;
              break;
            case NetOp::kRemove:
              ok = (res[i].status == NetStatus::kOk) == exp[i].flag;
              break;
            case NetOp::kGet:
              if (exp[i].flag) {
                ok = res[i].status == NetStatus::kOk && res[i].columns.size() == 1 &&
                     res[i].columns[0] == exp[i].value;
              } else {
                ok = res[i].status == NetStatus::kNotFound;
              }
              break;
            case NetOp::kMultiGet:
            case NetOp::kMultiPut:
              ok = res[i].status == NetStatus::kOk &&
                   res[i].batch.size() == exp[i].batch.size();
              for (size_t j = 0; ok && j < exp[i].batch.size(); ++j) {
                const Client::BatchGet& got = res[i].batch[j];
                const auto& [flag, value] = exp[i].batch[j];
                if (exp[i].op == NetOp::kMultiPut) {
                  ok = got.inserted == flag;
                } else {
                  ok = got.found == flag &&
                       (!flag || (got.columns.size() == 1 && got.columns[0] == value));
                }
              }
              break;
            default:
              break;
          }
          if (!ok) {
            ++errors;
          }
        }
      };

      for (int f = 0; f < kFrames; ++f) {
        std::vector<ExpectedOp> exp;
        int nops = 1 + static_cast<int>(rng.next_range(4));
        auto draw_key = [&] {
          return "c" + std::to_string(t) + "-" + std::to_string(rng.next_range(64));
        };
        for (int o = 0; o < nops; ++o) {
          std::string key = draw_key();
          switch (rng.next_range(5)) {
            case 0: {
              std::string val = "v" + std::to_string(rng.next());
              bool fresh = oracle.find(key) == oracle.end();
              oracle[key] = val;
              c.put(key, {{0, val}});
              exp.push_back({NetOp::kPut, fresh, {}, {}});
              break;
            }
            case 1: {
              auto it = oracle.find(key);
              c.get(key);
              exp.push_back(
                  {NetOp::kGet, it != oracle.end(), it != oracle.end() ? it->second : "", {}});
              break;
            }
            case 2: {
              bool present = oracle.erase(key) > 0;
              c.remove(key);
              exp.push_back({NetOp::kRemove, present, {}, {}});
              break;
            }
            case 3: {
              std::vector<std::string> keys{key};
              for (int n = static_cast<int>(rng.next_range(6)); n > 0; --n) {
                keys.push_back(draw_key());
              }
              ExpectedOp e{NetOp::kMultiGet, false, {}, {}};
              for (const std::string& k : keys) {
                auto it = oracle.find(k);
                e.batch.emplace_back(it != oracle.end(),
                                     it != oracle.end() ? it->second : "");
              }
              c.multiget(std::vector<std::string_view>(keys.begin(), keys.end()));
              exp.push_back(std::move(e));
              break;
            }
            default: {
              // Entries apply in order: a repeated key inserts at most once
              // and its last value wins.
              std::vector<std::string> keys{key}, vals;
              for (int n = static_cast<int>(rng.next_range(6)); n > 0; --n) {
                keys.push_back(draw_key());
              }
              ExpectedOp e{NetOp::kMultiPut, false, {}, {}};
              std::vector<netwire::MultiputEntry> entries;
              for (const std::string& k : keys) {
                vals.push_back("m" + std::to_string(rng.next()));
                e.batch.emplace_back(oracle.find(k) == oracle.end(), "");
                oracle[k] = vals.back();
              }
              for (size_t j = 0; j < keys.size(); ++j) {
                entries.push_back({keys[j], {{0, vals[j]}}});
              }
              c.multiput(entries);
              exp.push_back(std::move(e));
              break;
            }
          }
        }
        c.send();
        expected.push_back(std::move(exp));
        if (c.inflight() >= kDepth) {
          check(c.receive(), expected.front());
          expected.pop_front();
        }
      }
      while (c.inflight() > 0) {
        check(c.receive(), expected.front());
        expected.pop_front();
      }

      // Final sweep: every surviving oracle key must read back exactly.
      std::vector<ExpectedOp> exp;
      for (const auto& [k, v] : oracle) {
        c.get(k);
        exp.push_back({NetOp::kGet, true, v, {}});
        if (c.pending() == 64) {
          c.send();
          expected.push_back(std::move(exp));
          exp.clear();
        }
      }
      if (c.pending() > 0) {
        c.send();
        expected.push_back(std::move(exp));
      }
      while (c.inflight() > 0) {
        check(c.receive(), expected.front());
        expected.pop_front();
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(errors.load(), 0);
}

// ---------------------------------------------------------------------------
// Connection churn — connect/burst/disconnect loops — while ChurnDriver
// threads keep writing through their own store sessions the whole time.
TEST_F(NetLoopTest, ConnectionChurnUnderConcurrentPuts) {
  StartServer(2);
  ChurnDriver churn;
  std::atomic<uint64_t> background_puts{0};
  churn.spawn_with_setup(2, [&](ThreadContext&, Rng& rng) {
    // One store session per churn thread (worker ids clear of the server's).
    auto session = std::make_shared<Store::Session>(
        store_, 100 + static_cast<unsigned>(rng.next_range(1000)));
    return [this, session, &rng, &background_puts] {
      std::string key = "bg" + std::to_string(rng.next_range(512));
      store_.put(key, {ColumnUpdate{0, "bgv"}}, *session);
      background_puts.fetch_add(1, std::memory_order_relaxed);
      return true;
    };
  });

  for (int round = 0; round < 30; ++round) {
    Client c(server_->port());
    for (int i = 0; i < 32; ++i) {
      c.put("churn" + std::to_string(round) + "-" + std::to_string(i),
            {{0, std::to_string(i)}});
    }
    c.send();
    for (int i = 0; i < 32; ++i) {
      c.get("churn" + std::to_string(round) + "-" + std::to_string(i));
    }
    c.send();
    auto puts = c.receive();
    auto gets = c.receive();
    ASSERT_EQ(puts.size(), 32u);
    ASSERT_EQ(gets.size(), 32u);
    for (int i = 0; i < 32; ++i) {
      ASSERT_EQ(gets[i].status, NetStatus::kOk) << round << ":" << i;
      ASSERT_EQ(gets[i].columns[0], std::to_string(i)) << round << ":" << i;
    }
    // Client destructor closes the connection mid-server-lifetime.
  }
  EXPECT_EQ(churn.stop_and_join(), 0);
  EXPECT_GT(background_puts.load(), 0u);
}

// ---------------------------------------------------------------------------
// A client that stops reading mid-burst trips the tx high-water mark and gets
// its rx interest dropped — but connections on the SAME worker must keep
// being served, and the slow reader must eventually receive every byte.
TEST_F(NetLoopTest, SlowReaderDoesNotStallWorker) {
  StartServer(1, /*tx_highwater=*/32 << 10);  // one worker: worst case

  std::string big(8 << 10, 'B');
  {
    Client seed(server_->port());
    seed.put("big", {{0, big}});
    seed.flush();
  }

  // The slow reader: pipeline 64 frames x 4 gets of an 8 KiB value
  // (~2 MiB of responses against a 32 KiB high-water mark) and read nothing.
  // The requests themselves are tiny, so this write cannot block even after
  // the server pauses the connection.
  Client slow(server_->port());
  constexpr int kSlowFrames = 64, kGetsPerFrame = 4;
  for (int f = 0; f < kSlowFrames; ++f) {
    for (int g = 0; g < kGetsPerFrame; ++g) {
      slow.get("big");
    }
    slow.send();
  }

  // Meanwhile, on the same (only) worker: a fast client must make steady
  // progress. If the worker were blocked writing to the slow connection,
  // this loop would hang (and the suite's timeout would flag it).
  Client fast(server_->port());
  for (int i = 0; i < 200; ++i) {
    fast.put("fast" + std::to_string(i), {{0, std::to_string(i)}});
    fast.get("fast" + std::to_string(i));
    auto res = fast.flush();
    ASSERT_EQ(res.size(), 2u) << i;
    ASSERT_EQ(res[1].columns[0], std::to_string(i)) << i;
  }

  // Now drain the slow reader: everything must arrive, intact and in order.
  for (int f = 0; f < kSlowFrames; ++f) {
    auto res = slow.receive();
    ASSERT_EQ(res.size(), static_cast<size_t>(kGetsPerFrame)) << f;
    for (const auto& r : res) {
      ASSERT_EQ(r.status, NetStatus::kOk) << f;
      ASSERT_EQ(r.columns.size(), 1u) << f;
      ASSERT_EQ(r.columns[0], big) << f;
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-connection batch formation: each connection sends exactly ONE
// single-get frame, so a batch (>= 2 coalesced request ops, mirrored from
// Counter::kNetBatchedGets) can only form when gets from DIFFERENT
// connections land in the same worker wakeup.
TEST_F(NetLoopTest, BatchesFormAcrossConnections) {
  StartServer(1);  // one worker so every connection shares one event loop
  {
    Client seed(server_->port());
    for (int i = 0; i < 16; ++i) {
      seed.put("bf" + std::to_string(i), {{0, std::to_string(i)}});
    }
    seed.flush();
  }

  constexpr int kConns = 16, kAttempts = 200;
  for (int attempt = 0; attempt < kAttempts && server_->batched_gets() == 0; ++attempt) {
    std::vector<std::unique_ptr<Client>> conns;
    for (int i = 0; i < kConns; ++i) {
      conns.push_back(std::make_unique<Client>(server_->port()));
    }
    // Fire all the single-get frames as close together as possible, THEN
    // collect — while we are still sending, the worker is already waking up
    // with several readable connections.
    for (int i = 0; i < kConns; ++i) {
      conns[i]->get("bf" + std::to_string(i));
      conns[i]->send();
    }
    for (int i = 0; i < kConns; ++i) {
      auto res = conns[i]->receive();
      ASSERT_EQ(res.size(), 1u);
      ASSERT_EQ(res[0].status, NetStatus::kOk);
      ASSERT_EQ(res[0].columns[0], std::to_string(i));
    }
  }
  EXPECT_GT(server_->batched_gets(), 0u)
      << "no cross-connection batch reached Tree::multiget in " << kAttempts
      << " attempts";
  EXPECT_GT(server_->batches_formed(), 0u);
}

// ---------------------------------------------------------------------------
// Cross-connection WRITE batch formation (the write-side twin of the test
// above): each connection sends exactly ONE single-put frame, so a write
// batch (>= 2 coalesced ops, mirrored from Counter::kNetBatchedPuts) can only
// form when puts from DIFFERENT connections land in the same worker wakeup.
TEST_F(NetLoopTest, WriteBatchesFormAcrossConnections) {
  StartServer(1);  // one worker so every connection shares one event loop

  constexpr int kConns = 16, kAttempts = 200;
  int attempt = 0;
  for (; attempt < kAttempts && server_->batched_puts() == 0; ++attempt) {
    std::vector<std::unique_ptr<Client>> conns;
    for (int i = 0; i < kConns; ++i) {
      conns.push_back(std::make_unique<Client>(server_->port()));
    }
    // Fire all the single-put frames as close together as possible, THEN
    // collect — while we are still sending, the worker is already waking up
    // with several readable connections.
    for (int i = 0; i < kConns; ++i) {
      conns[i]->put("wb" + std::to_string(i), {{0, "a" + std::to_string(attempt)}});
      conns[i]->send();
    }
    for (int i = 0; i < kConns; ++i) {
      auto res = conns[i]->receive();
      ASSERT_EQ(res.size(), 1u);
      ASSERT_EQ(res[0].status, NetStatus::kOk);
    }
  }
  EXPECT_GT(server_->batched_puts(), 0u)
      << "no cross-connection write batch reached Store::multiput in "
      << kAttempts << " attempts";
  EXPECT_GT(server_->wbatches_formed(), 0u);

  // Coalescing must not have corrupted any write: read every key back.
  Client c(server_->port());
  for (int i = 0; i < kConns; ++i) {
    c.get("wb" + std::to_string(i));
  }
  auto res = c.flush();
  ASSERT_EQ(res.size(), static_cast<size_t>(kConns));
  for (int i = 0; i < kConns; ++i) {
    ASSERT_EQ(res[i].status, NetStatus::kOk) << i;
    EXPECT_EQ(res[i].columns[0], "a" + std::to_string(attempt - 1)) << i;
  }
}

// ---------------------------------------------------------------------------
// Start/stop cycles with live connections: the old blocking server had a
// shutdown/accept race on listen_fd_; the event-loop server routes the
// listener through worker 0's epoll set and closes the fd only after every
// worker has joined.
TEST(NetLoopShutdown, StartStopCyclesWithLiveClients) {
  Store store;
  for (int round = 0; round < 20; ++round) {
    Server server(store, Server::Options{0, 2});
    server.start();
    Client c(server.port());
    c.put("ss" + std::to_string(round), {{0, "v"}});
    c.get("ss" + std::to_string(round));
    auto res = c.flush();
    ASSERT_EQ(res.size(), 2u);
    EXPECT_EQ(res[1].columns[0], "v");
    server.stop();  // with the client still connected
  }
}

// ---------------------------------------------------------------------------
// Out of file descriptors: accept4 fails with EMFILE, the pending
// connections stay queued, and the level-triggered listener stays readable.
// The accepting worker must not spin on it, and the backlogged clients must
// be served once earlier connections close. The server runs in a forked
// child whose RLIMIT_NOFILE sits a few fds above its open ones, so the limit
// binds nothing else in the test process.

// User + system CPU seconds a process has used so far (/proc/<pid>/stat).
double process_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  size_t p = stat.rfind(')');  // the command name may hold spaces
  if (p == std::string::npos) {
    return -1;
  }
  std::istringstream fields(stat.substr(p + 2));
  std::string skip;
  for (int i = 3; i < 14; ++i) {  // fields 3..13 precede utime (14), stime (15)
    fields >> skip;
  }
  uint64_t utime = 0, stime = 0;
  fields >> utime >> stime;
  return static_cast<double>(utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

TEST(NetLoopAccept, FdExhaustionDoesNotSpinAndBacklogIsServed) {
  constexpr int kSpareFds = 4, kConns = 16;
  int port_pipe[2], stop_pipe[2];
  ASSERT_EQ(::pipe(port_pipe), 0);
  ASSERT_EQ(::pipe(stop_pipe), 0);
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // The child reports its port (0 on failure), serves until the parent
    // closes the stop pipe, and never returns into the test runner.
    ::close(port_pipe[0]);
    ::close(stop_pipe[1]);
    try {
      Store::Options sopt;
      sopt.maintenance_thread = false;  // only the server's CPU is measured
      Store store(sopt);
      Server server(store, Server::Options{0, 1});
      server.start();
      int lowest_free = ::fcntl(port_pipe[1], F_DUPFD, 0);
      ::close(lowest_free);
      rlimit saved{};
      ::getrlimit(RLIMIT_NOFILE, &saved);
      rlimit low = saved;
      low.rlim_cur = static_cast<rlim_t>(lowest_free + kSpareFds);
      uint16_t port = ::setrlimit(RLIMIT_NOFILE, &low) == 0 ? server.port() : 0;
      ssize_t w = ::write(port_pipe[1], &port, sizeof(port));
      char b;
      ssize_t r = ::read(stop_pipe[0], &b, 1);
      (void)w;
      (void)r;
      ::setrlimit(RLIMIT_NOFILE, &saved);  // shutdown runs with room to spare
      server.stop();
    } catch (...) {
      ::_exit(1);
    }
    ::_exit(0);
  }
  ::close(port_pipe[1]);
  ::close(stop_pipe[0]);
  struct Child {
    pid_t pid;
    int stop_fd;
    ~Child() {
      if (stop_fd >= 0) {  // an assertion bailed out early
        ::close(stop_fd);
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
      }
    }
  } child{pid, stop_pipe[1]};
  uint16_t port = 0;
  ASSERT_EQ(::read(port_pipe[0], &port, sizeof(port)), static_cast<ssize_t>(sizeof(port)));
  ::close(port_pipe[0]);
  ASSERT_NE(port, 0) << "child could not lower RLIMIT_NOFILE";

  // Every client connects (the kernel queues what the server cannot accept)
  // and sends one ping frame.
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  std::vector<int> fds;
  std::string ping;
  netwire::encode_ping(&ping);
  netwire::frame(&ping);
  for (int i = 0; i < kConns; ++i) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    fds.push_back(fd);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    ASSERT_EQ(::send(fd, ping.data(), ping.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(ping.size()));
  }

  // The server now holds kSpareFds connections and cannot accept the rest.
  // Over an idle second its CPU must stay far below the second.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  double cpu0 = process_cpu_s(pid);
  std::this_thread::sleep_for(std::chrono::seconds(1));
  double cpu1 = process_cpu_s(pid);
  ASSERT_GE(cpu0, 0);
  EXPECT_LT(cpu1 - cpu0, 0.2) << "the accepting worker spins on a listener it cannot accept from";

  // Closing each answered connection frees an fd for a backlogged one, so
  // every client is eventually answered.
  int served = 0;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (served < kConns && std::chrono::steady_clock::now() < deadline) {
    std::vector<pollfd> pfds;
    for (int fd : fds) {
      if (fd >= 0) {
        pfds.push_back(pollfd{fd, POLLIN, 0});
      }
    }
    ASSERT_GE(::poll(pfds.data(), pfds.size(), 100), 0);
    for (const pollfd& p : pfds) {
      if ((p.revents & POLLIN) == 0) {
        continue;
      }
      char resp[5];  // u32 length 1 + status byte kOk
      ASSERT_EQ(::recv(p.fd, resp, sizeof(resp), MSG_WAITALL), 5);
      uint32_t len;
      std::memcpy(&len, resp, sizeof(len));
      EXPECT_EQ(len, 1u);
      EXPECT_EQ(resp[4], 0);
      ::close(p.fd);
      for (int& fd : fds) {
        if (fd == p.fd) {
          fd = -1;
        }
      }
      ++served;
    }
  }
  EXPECT_EQ(served, kConns) << "backlogged clients were never accepted";
  for (int fd : fds) {
    if (fd >= 0) {
      ::close(fd);
    }
  }

  ::close(child.stop_fd);
  child.stop_fd = -1;
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

// ---------------------------------------------------------------------------
// Slow-loris guard: a peer that connects and trickles HALF a frame must be
// reaped once Options::idle_timeout_ms elapses without a complete frame —
// while a healthy pipelining client on the same worker keeps serving. Without
// the sweep such connections pin worker state forever (the hole this test
// used to leave open).
TEST(NetLoopIdle, SlowLorisConnectionsAreReaped) {
  Store store;
  Server::Options opt;
  opt.workers = 1;  // loris and healthy client share one event loop
  opt.idle_timeout_ms = 100;
  Server server(store, opt);
  server.start();

  // The loris: a raw socket that sends a length prefix promising 100 bytes,
  // delivers 3, then stalls. Half a frame must NOT count as activity.
  int loris = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(loris, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(loris, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  uint32_t promised = 100;
  ASSERT_EQ(::send(loris, &promised, sizeof(promised), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(promised)));
  ASSERT_EQ(::send(loris, "abc", 3, MSG_NOSIGNAL), 3);

  // A healthy client keeps completing frames throughout, so it must survive
  // every sweep while the loris idles out.
  Client healthy(server.port());
  bool reaped = false;
  for (int tries = 0; tries < 500; ++tries) {
    healthy.put("hk", {{0, "v" + std::to_string(tries)}});
    auto res = healthy.flush();
    ASSERT_EQ(res.size(), 1u);
    ASSERT_EQ(res[0].status, NetStatus::kOk);
    if (server.idle_reaped() >= 1) {
      reaped = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(reaped) << "idle sweep never closed the stalled connection";

  // The server closed its side: the loris reads EOF (possibly after a reset
  // if more trickled bytes raced the close).
  timeval tv{2, 0};
  ::setsockopt(loris, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  char b;
  EXPECT_LE(::recv(loris, &b, 1, 0), 0);
  ::close(loris);

  // And the healthy connection still serves after the reap.
  healthy.get("hk");
  auto res = healthy.flush();
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].status, NetStatus::kOk);
  server.stop();
}

// ---------------------------------------------------------------------------
// Degraded serving over the wire: a sticky log I/O error flips the store
// read-only; from then on puts/removes answer NetStatus::kReadOnly (no
// payload) on the SAME connection, gets keep serving the in-memory data, and
// nothing is closed or thrown.
TEST(NetLoopReadOnly, WritesAnswerReadOnlyGetsKeepServing) {
  std::string dir = testing::TempDir() + "/net_ro_logs";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Store::Options sopt;
  sopt.log_dir = dir;
  sopt.log_partitions = 1;
  sopt.maintenance_thread = false;
  Store store(sopt);
  {
    Server server(store, Server::Options{0, 1});
    server.start();
    Client c(server.port());
    c.put("pre", {{0, "durable"}});
    auto r0 = c.flush();
    ASSERT_EQ(r0.size(), 1u);
    ASSERT_EQ(r0[0].status, NetStatus::kOk);
    store.sync_logs();
    ASSERT_FALSE(store.read_only());

    // First log pwritev from here on fails with EIO -> sticky trip.
    io::FaultPlan plan;
    plan.fail_at = 1;
    plan.fail_errno = EIO;
    plan.fail_op = "pwritev";
    {
      io::Armed armed(&plan);
      c.put("doomed", {{0, "x"}});
      auto r1 = c.flush();  // accepted before the drain hits the bad disk
      ASSERT_EQ(r1.size(), 1u);
      store.sync_logs();  // forces the failing flush round
    }
    ASSERT_TRUE(store.read_only());

    // Same connection: writes now answer kReadOnly, reads keep serving.
    c.put("after", {{0, "y"}});
    c.remove("pre");
    c.get("pre");
    c.get("doomed");  // applied in memory before the trip; still readable
    auto res = c.flush();
    ASSERT_EQ(res.size(), 4u);
    EXPECT_EQ(res[0].status, NetStatus::kReadOnly);
    EXPECT_EQ(res[1].status, NetStatus::kReadOnly);
    ASSERT_EQ(res[2].status, NetStatus::kOk);
    EXPECT_EQ(res[2].columns[0], "durable");
    EXPECT_EQ(res[3].status, NetStatus::kOk);

    // Multiput over the wire also reports the degraded mode in-band.
    c.multiput({{"m1", {{0, "a"}}}, {"m2", {{0, "b"}}}});
    auto rm = c.flush();
    ASSERT_EQ(rm.size(), 1u);
    EXPECT_EQ(rm[0].status, NetStatus::kReadOnly);
    EXPECT_EQ(store.log_error(), EIO);
    EXPECT_STREQ(store.log_error_detail().syscall, "pwritev");
    server.stop();
  }
}

}  // namespace
}  // namespace masstree
