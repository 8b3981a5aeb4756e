// The repository benchmark: the event-loop Server over a logged Store on
// loopback, driven by one load-generator thread in the same process.
//
//   perfbench --workload <name> --part <closed|open> --seed <n> --seconds <s>
//             --trace <0|1> [--scale full|tiny] [--work-dir <dir>]
//
// A run is two processes, one per part, so that neither phase inherits the
// other's heap; perfbench/run.py runs both and merges their results.
//
// --trace 0, the end-to-end metrics:
//   closed part  throughput_kops: closed loop for a third of --seconds,
//                batching clients with frame_ops ops per frame and depth
//                frames in flight per connection; the median over the
//                kWindowSecs windows the host stole no CPU in (see
//                run_closed). rss_mb: RSS at its end minus RSS before the
//                Store.
//   open part    p50_us, p99_us, server_cpu_us_per_op: open loop for two
//                thirds of --seconds, Poisson arrivals at the workload's
//                fixed rate, latency from each request's intended send time;
//                whole-phase percentiles and CPU over the open loop's kept
//                segments (see run_open). Then the Store is read back over
//                the wire, stopped and recovered: log_write_amp, recover_s.
//   both         setup_s samples: Store + Server construction, bulk load over
//                the wire in kMultiPut frames, warm-up. The closed part sets
//                up twice, the open part once; run.py reports the median.
// Each part measures on the first Store its process builds. Timings that
// host steal touched are set aside and replaced where the run can afford it
// (open-loop segments, recoveries, closed-loop windows); see run_open.
// --trace 1, the per-layer metrics: the closed loop in untraced and traced
// legs (closed part); the open loop with generator-side spans, an in-process
// replay of its op stream through the kvstore and core layers, recovery, and
// the logging and multiput duels (open part). Spans are written to
// <work-dir>/trace-<workload>-<part>.tsv.
//
// Every response is checked; the last stdout line is one JSON object with
// correct/attempted/failed/metrics/setup_s_samples. Exit codes: 0 ok, 1
// correctness failure, 2 usage error, 3 invalid run (the generator fell
// behind its schedule).

#include <sys/prctl.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "kvstore/store.h"
#include "net/server.h"
#include "stats.h"
#include "wire.h"
#include "workload.h"

namespace perfbench {
namespace {

using masstree::ColumnUpdate;
using masstree::Counter;
using masstree::NetStatus;
using masstree::Server;
using masstree::Store;
using masstree::ThreadCounters;
using masstree::Tree;
namespace netwire = masstree::netwire;

constexpr unsigned kServerWorkers = 2;
constexpr size_t kLoadBatch = 512;     // kMultiPut entries per bulk-load frame
constexpr unsigned kLoadDepth = 2;     // bulk-load frames in flight per connection
constexpr size_t kReplayBatch = 16;    // Tree::kMultigetWindow
constexpr double kMaxLagP50Us = 1000;  // beyond this the generator fell behind
constexpr uint32_t kDigestPage = 8192;  // pairs per kScan page of the digest read
constexpr double kWindowSecs = 0.1;     // throughput_kops: median over windows this long
constexpr double kSegmentSecs = 1.0;    // the open loop runs in segments this long
constexpr unsigned kSegmentBudget = 2;  // segments run: at most this many times those planned
constexpr double kMaxRecoverySteal = 2; // host steal (/proc/stat ticks/s) a clean recovery sees
constexpr unsigned kRecoveries = 1;     // recover_s: median of this many clean recoveries
constexpr unsigned kRecoveryBudget = 2; // recoveries run: at most this many

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool open_part = false;  // --part open; otherwise the closed part
  bool tiny = false;
  std::string work_dir = ".bench_build/perfbench-work";
};

// ---------------------------------------------------------------------------
// Metrics, printed by name with their units.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      value = 0;
    }
    metrics_.push_back({name, value, unit});
    std::printf("metric %-32s %16.6f %s\n", name.c_str(), value, unit.c_str());
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

double rss_mb() {
  long pages = 0;
  long resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) {
      resident = 0;
    }
    std::fclose(f);
  }
  return static_cast<double>(resident) * static_cast<double>(::sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

std::string fs_name(const std::string& path) {
  struct statfs sf {};
  if (::statfs(path.c_str(), &sf) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(sf.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(sf.f_type));
      return buf;
    }
  }
}

// CPU time the hypervisor gave to other guests while this one's vCPUs were
// runnable: the steal column of /proc/stat, in ticks, summed over all CPUs.
uint64_t steal_ticks() {
  unsigned long long v[8] = {};
  if (FILE* f = std::fopen("/proc/stat", "r")) {
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2], &v[3],
                    &v[4], &v[5], &v[6], &v[7]) != 8) {
      v[7] = 0;
    }
    std::fclose(f);
  }
  return v[7];
}

// Host steal per second of a sample that took `secs`.
double steal_rate(uint64_t ticks, double secs) {
  return secs <= 0 ? 0 : static_cast<double>(ticks) / secs;
}

// Indices of the `want` samples with the least steal rate, earliest first
// among equals, in sample order.
std::vector<size_t> least_stolen(const std::vector<double>& rates, size_t want) {
  std::vector<size_t> idx(rates.size());
  std::iota(idx.begin(), idx.end(), size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) { return rates[a] < rates[b]; });
  idx.resize(std::min(want, idx.size()));
  std::sort(idx.begin(), idx.end());
  return idx;
}

uint64_t dir_bytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) {
      total += e.file_size(ec);
    }
  }
  return total;
}

uint64_t fold(uint64_t h, std::string_view k, std::string_view v) {
  return splitmix64(h ^ key_hash(k, 7) ^ (key_hash(v, 9) * 31));
}

// Counter deltas accumulated over the calls of one layer entry point.
struct CallStats {
  uint64_t items = 0;  // keys or pairs handled
  double ns = 0;
  std::array<uint64_t, masstree::kNumCounters> c{};

  void add(const ThreadCounters& before, const ThreadCounters& after, uint64_t n, int64_t t0,
           int64_t t1) {
    items += n;
    ns += static_cast<double>(t1 - t0);
    for (unsigned i = 0; i < masstree::kNumCounters; ++i) {
      c[i] += after.c[i] - before.c[i];
    }
  }
  CallStats& operator+=(const CallStats& o) {
    items += o.items;
    ns += o.ns;
    for (unsigned i = 0; i < masstree::kNumCounters; ++i) {
      c[i] += o.c[i];
    }
    return *this;
  }
  uint64_t get(Counter k) const { return c[static_cast<unsigned>(k)]; }
  double per_item_ns() const { return items == 0 ? 0 : ns / static_cast<double>(items); }
};

double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

// The generator-side spans of one request (a closed-loop frame counts as
// one): the root `req` from its intended send to the end of its decode, with
// children gen.encode, gen.send, net.wait (server plus wire) and gen.decode.
struct RequestSpans {
  SpanBuffer* buf = nullptr;
  uint32_t req = 0, enc = 0, send = 0, wait = 0, dec = 0;

  RequestSpans(SpanBuffer* b) : buf(b) {
    if (buf != nullptr) {
      req = buf->name_id("req");
      enc = buf->name_id("gen.encode");
      send = buf->name_id("gen.send");
      wait = buf->name_id("net.wait");
      dec = buf->name_id("gen.decode");
    }
  }

  // `done`: the response was received; `end`: it was decoded and checked.
  void record(uint64_t id, const Pending& p, int64_t done, int64_t end) {
    uint32_t root = buf->add(req, SpanBuffer::kNone, id, p.intended, end);
    buf->add(enc, root, id, p.enc_start, p.enc_end);
    buf->add(send, root, id, p.send_start, p.send_end);
    buf->add(wait, root, id, p.send_end, done);
    buf->add(dec, root, id, done, end);
  }
};

// ---------------------------------------------------------------------------
// Everything one workload run needs, pregenerated before any timed window.
class Bench {
 public:
  Bench(const WorkloadSpec& spec, const Args& args) : spec_(spec), args_(args) {
    keys_count_ = args.tiny ? std::max<uint64_t>(2000, spec.keys / 1000) : spec.keys;
    open_rate_ = args.tiny ? spec.open_rate / 10 : spec.open_rate;
    closed_secs_ = args.seconds / 3;
    open_secs_ = args.seconds * (args.trace ? 0.4 : 2.0 / 3);
    warm_ops_ = args.tiny ? 2000 : spec.warm_ops;
    probe_ops_ = args.tiny ? 512 : 32768;
    planned_segments_ =
        std::max<unsigned>(1, static_cast<unsigned>(std::lround(open_secs_ / kSegmentSecs)));
  }

  int run();

 private:
  struct Instance {
    std::unique_ptr<Store> store;
    std::unique_ptr<Server> server;
    std::vector<Conn> conns = std::vector<Conn>(kConns);
    std::string log_dir;
    uint64_t user_bytes = 0;  // key+value bytes of every write sent
  };

  // ---- response checks -------------------------------------------------
  void fail(const char* what, std::string_view key) {
    ++failed_;
    if (failures_shown_ < 10) {
      ++failures_shown_;
      std::string k(key);
      std::fprintf(stderr, "FAIL %s key=%s\n", what, k.c_str());
    }
  }

  std::string_view op_key(const Op& op) const {
    return op.kind == OpKind::kInsert ? fresh_[op.key] : keys_[op.key];
  }

  // Encodes one op (no frame header).
  void encode_op(std::string* out, const Op& op, uint64_t* user_bytes) {
    std::string_view key = op_key(op);
    switch (op.kind) {
      case OpKind::kGet:
        netwire::encode_get(out, key, no_cols_);
        break;
      case OpKind::kPut:
      case OpKind::kInsert: {
        make_value(spec_.value, json_, key, op.ver, valbuf_);
        one_col_[0] = {0, std::string_view(valbuf_, value_len(spec_.value))};
        netwire::encode_put(out, key, one_col_);
        *user_bytes += key.size() + value_len(spec_.value);
        break;
      }
      case OpKind::kScan:
        netwire::encode_scan(out, key, op.scan_len, 0);
        break;
    }
  }

  // Checks one op's result; false if the body can no longer be parsed.
  bool check_op(const Op& op, netwire::Reader& r) {
    std::string_view key = op_key(op);
    uint8_t status = 0;
    if (!r.read(&status)) {
      fail("truncated response", key);
      return false;
    }
    if (status != static_cast<uint8_t>(NetStatus::kOk)) {
      fail(op.kind == OpKind::kGet ? "get status" : "write/scan status", key);
      return true;  // non-ok results carry no payload
    }
    switch (op.kind) {
      case OpKind::kGet: {
        uint16_t ncols = 0;
        uint32_t len = 0;
        std::string_view v;
        if (!r.read(&ncols) || ncols != 1 || !r.read(&len) || !r.read_bytes(len, &v)) {
          fail("get payload", key);
          return false;
        }
        if (!check_value(spec_.value, json_, key, v)) {
          fail("get value", key);
        }
        return true;
      }
      case OpKind::kPut:
      case OpKind::kInsert: {
        uint8_t inserted = 0;
        if (!r.read(&inserted)) {
          fail("put payload", key);
          return false;
        }
        return true;
      }
      case OpKind::kScan:
        return check_scan(key, op.scan_len, r);
    }
    return true;
  }

  // A scan must be strictly ascending from at or after its start key, carry
  // correct values, miss no base key inside the range it covered, and be
  // short only at the end of the keyspace.
  bool check_scan(std::string_view start, uint32_t limit, netwire::Reader& r) {
    uint32_t n = 0;
    if (!r.read(&n) || n > limit) {
      fail("scan count", start);
      return false;
    }
    std::string_view prev;
    bool ok = true;
    for (uint32_t i = 0; i < n; ++i) {
      uint32_t kl = 0;
      uint32_t vl = 0;
      std::string_view k;
      std::string_view v;
      if (!r.read(&kl) || !r.read_bytes(kl, &k) || !r.read(&vl) || !r.read_bytes(vl, &v)) {
        fail("scan payload", start);
        return false;
      }
      if (i == 0) {
        ok = ok && k >= start;
      } else {
        ok = ok && k > prev;
      }
      ok = ok && check_value(spec_.value, json_, k, v);
      prev = k;
    }
    if (!ok) {
      fail("scan order/value", start);
      return true;
    }
    if (n == 0) {
      if (sorted_->count_at_or_after(start) != 0) {
        fail("scan empty before end", start);
      }
    } else if (sorted_->count_in(start, prev) > n) {
      fail("scan missed keys", start);
    } else if (n < limit && sorted_->count_at_or_after(prev) > 1) {
      fail("scan short before end", start);
    }
    return true;
  }

  // Checks a response frame of `p.nops` stream ops starting at p.first.
  void check_frame(const std::vector<Op>& ops, const Pending& p, std::string_view body) {
    netwire::Reader r(body);
    for (uint32_t i = 0; i < p.nops; ++i) {
      const Op& op = ops[(p.first + i) % ops.size()];
      if (!check_op(op, r)) {
        failed_ += p.nops - i - 1;
        return;
      }
    }
    if (!r.done()) {
      fail("trailing response bytes", {});
    }
  }

  // ---- phases -----------------------------------------------------------
  double setup(Instance& in, const std::string& tag);
  void teardown(Instance& in);
  std::vector<double> run_closed(Instance& in, double secs, size_t* pos, SpanBuffer* spans);
  // One open-loop segment, or the merge of several.
  struct OpenResult {
    Histogram latency;  // from intended send to response, completed requests
    Histogram lag;      // from intended send to the send call
    uint64_t completed = 0;
    double server_cpu_s = 0;
    double gen_cpu_s = 0;
    double secs = 0;
    uint64_t steal = 0;  // host steal ticks during the segment

    OpenResult& operator+=(const OpenResult& o) {
      latency += o.latency;
      lag += o.lag;
      completed += o.completed;
      server_cpu_s += o.server_cpu_s;
      gen_cpu_s += o.gen_cpu_s;
      secs += o.secs;
      steal += o.steal;
      return *this;
    }
    double percentile_us(double q) const {
      return static_cast<double>(latency.percentile(q)) / 1e3;
    }
    double server_cpu_us_per_op() const {
      return completed == 0 ? 0 : 1e6 * server_cpu_s / static_cast<double>(completed);
    }
  };
  void run_open(Instance& in, OpenResult* out, SpanBuffer* spans);
  void run_segment(Instance& in, size_t seg, size_t first, OpenResult* out, SpanBuffer* spans);
  void write_spans(const SpanBuffer& spans, const char* part);
  uint64_t wire_digest(Instance& in, uint64_t* pairs);
  static uint64_t store_digest(Store& store, uint64_t* pairs);
  double recover(Instance& in, uint64_t live_digest, uint64_t live_pairs, uint64_t* log_bytes);
  void replay(Store& store, Report& rep, double server_cpu_us_per_op, SpanBuffer& spans);
  void core_pass(Report& rep, SpanBuffer& spans);
  double log_duel();
  double log_duel_in(const std::string& dir);
  std::vector<Op> write_stream(size_t n, uint64_t seed);
  std::vector<Op> replay_ops();
  size_t duel_chunk() const { return args_.tiny ? 256 : 4096; }

  // The generator fell behind when the typical request left over
  // kMaxLagP50Us late: a backlog, not a descheduled moment (whose delay the
  // latency figures already charge, since they run from intended sends).
  bool valid_lag(const Histogram& lag) {
    double p50 = static_cast<double>(lag.percentile(0.5)) / 1e3;
    if (p50 > kMaxLagP50Us) {
      std::fprintf(stderr,
                   "INVALID RUN: generator lag p50 %.1f us exceeds %.0f us; the open-loop "
                   "numbers would not reflect the schedule\n",
                   p50, kMaxLagP50Us);
      return false;
    }
    return true;
  }

  const WorkloadSpec& spec_;
  const Args& args_;
  uint64_t keys_count_ = 0;
  double open_rate_ = 0;
  double closed_secs_ = 0;
  double open_secs_ = 0;
  size_t warm_ops_ = 0;
  size_t probe_ops_ = 0;
  unsigned planned_segments_ = 1;
  size_t planned_ops_ = 0;  // open-loop requests in the planned segments

  KeyTable keys_;
  KeyTable fresh_;
  std::optional<SortedKeys> sorted_;
  JsonValues json_;
  std::vector<Op> closed_ops_;
  std::vector<Op> open_ops_;
  std::vector<std::vector<int64_t>> schedules_;  // one per segment, kSegmentBudget x planned
  std::vector<Op> replay_ops_;
  std::vector<Op> duel_ops_;
  uint32_t next_fresh_ = 0;
  CallStats scan_layer_;  // scan counters over kvstore.getrange + core.scan_batch

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  unsigned failures_shown_ = 0;
  unsigned instances_ = 0;

  const std::vector<uint16_t> no_cols_;
  std::vector<std::pair<uint16_t, std::string_view>> one_col_ =
      std::vector<std::pair<uint16_t, std::string_view>>(1);
  char valbuf_[kJsonLen];
};

// ---------------------------------------------------------------------------
double Bench::setup(Instance& in, const std::string& tag) {
  in.log_dir = args_.work_dir + "/log-" + tag;
  std::filesystem::remove_all(in.log_dir);
  std::filesystem::create_directories(args_.work_dir);
  int64_t t0 = now_ns();
  Store::Options so;
  so.log_dir = in.log_dir;
  in.store = std::make_unique<Store>(so);
  Server::Options sv;
  sv.workers = kServerWorkers;
  in.server = std::make_unique<Server>(*in.store, sv);
  in.server->start();
  for (Conn& c : in.conns) {
    c.connect_to(in.server->port());
  }

  // Bulk load: every base key at version 0, kLoadBatch keys per kMultiPut.
  struct LoadSource {
    Bench& b;
    Instance& in;
    uint64_t next = 0;
    std::vector<netwire::MultiputEntry> entries;
    std::vector<char> vals;
    bool has_more() const { return next < b.keys_count_; }
    void encode(Conn& c, Pending& p) {
      size_t n = std::min<uint64_t>(kLoadBatch, b.keys_count_ - next);
      size_t vlen = value_len(b.spec_.value);
      entries.resize(n);
      vals.resize(n * vlen);
      for (size_t i = 0; i < n; ++i) {
        std::string_view key = b.keys_[next + i];
        make_value(b.spec_.value, b.json_, key, 0, vals.data() + i * vlen);
        entries[i].key = key;
        entries[i].cols.assign(1, {0, std::string_view(vals.data() + i * vlen, vlen)});
        in.user_bytes += key.size() + vlen;
      }
      size_t at = c.begin_frame();
      netwire::encode_multiput(&c.tx, entries);
      c.end_frame(at);
      p.first = next;
      p.nops = static_cast<uint32_t>(n);
      next += n;
      b.attempted_ += n;
    }
    void complete(const Pending& p, std::string_view body, int64_t) {
      netwire::Reader r(body);
      uint8_t status = 0;
      uint16_t count = 0;
      if (!r.read(&status) || status != 0 || !r.read(&count) || count != p.nops) {
        b.failed_ += p.nops;
        b.fail("bulk load frame", b.keys_[p.first]);
        return;
      }
      for (uint32_t i = 0; i < p.nops; ++i) {
        uint8_t ins = 0;
        if (!r.read(&ins)) {
          b.fail("bulk load payload", b.keys_[p.first]);
          return;
        }
      }
    }
    void lost(const Pending& p) {
      b.failed_ += p.nops;
      b.fail("bulk load lost", b.keys_[p.first]);
    }
  } load{*this, in, 0, {}, {}};
  closed_loop(in.conns, kLoadDepth, INT64_MAX, load);

  // Warm-up: a fixed prefix of the closed-loop stream, then a full group
  // commit so the measured phase starts from a quiescent log.
  size_t pos = 0;
  run_closed(in, -1, &pos, nullptr);
  in.store->sync_logs();
  return static_cast<double>(now_ns() - t0) / 1e9;
}

void Bench::teardown(Instance& in) {
  for (Conn& c : in.conns) {
    if (c.fd >= 0) {
      ::close(c.fd);
      c.fd = -1;
    }
  }
  if (in.server) {
    in.server->stop();
  }
  in.server.reset();
  in.store.reset();
  in.conns = std::vector<Conn>(kConns);
  std::filesystem::remove_all(in.log_dir);
}

// Closed loop over closed_ops_ from *pos: for `secs` seconds, or (secs < 0)
// exactly warm_ops_ ops. Returns the ops completed per second, in kops/s,
// in each kept kWindowSecs window (none for the warm-up).
std::vector<double> Bench::run_closed(Instance& in, double secs, size_t* pos, SpanBuffer* spans) {
  struct StreamSource {
    Bench& b;
    Instance& in;
    size_t* pos;
    size_t limit;  // absolute stream position to stop issuing at
    int64_t deadline;
    int64_t start;
    int64_t win_ns;
    std::vector<uint64_t>* win_ops;
    std::vector<uint64_t>* win_steal;
    RequestSpans spans;
    uint64_t frames = 0;
    size_t steal_win = 0;  // window the steal since steal_mark is charged to
    uint64_t steal_mark = 0;
    bool has_more() const { return *pos < limit; }
    void encode(Conn& c, Pending& p) {
      unsigned k = b.spec_.frame_ops;
      size_t at = c.begin_frame();
      for (unsigned i = 0; i < k; ++i) {
        b.encode_op(&c.tx, b.closed_ops_[(*pos + i) % b.closed_ops_.size()], &in.user_bytes);
      }
      c.end_frame(at);
      p.first = *pos;
      p.nops = k;
      *pos += k;
      b.attempted_ += k;
    }
    void complete(const Pending& p, std::string_view body, int64_t done) {
      uint64_t before = b.failed_;
      b.check_frame(b.closed_ops_, p, body);
      if (done <= deadline && win_ops != nullptr) {
        size_t w = std::min<size_t>(win_ops->size() - 1,
                                    static_cast<size_t>((done - start) / win_ns));
        (*win_ops)[w] += p.nops - std::min<uint64_t>(p.nops, b.failed_ - before);
        if (w > steal_win) {
          uint64_t now = steal_ticks();
          (*win_steal)[steal_win] += now - steal_mark;
          steal_mark = now;
          steal_win = w;
        }
      }
      if (spans.buf != nullptr) {
        spans.record(frames++, p, done, now_ns());
      }
    }
    void lost(const Pending& p) {
      b.failed_ += p.nops;
      b.fail("closed-loop frame lost", {});
    }
  };
  int64_t start = now_ns();
  int64_t deadline = secs < 0 ? INT64_MAX : start + static_cast<int64_t>(secs * 1e9);
  size_t limit = secs < 0 ? *pos + warm_ops_ : SIZE_MAX;
  size_t nwin =
      secs < 0 ? 1 : std::max<size_t>(1, static_cast<size_t>(std::lround(secs / kWindowSecs)));
  std::vector<uint64_t> win_ops(nwin);
  std::vector<uint64_t> win_steal(nwin);
  int64_t win_ns = secs < 0 ? 1 : static_cast<int64_t>(secs * 1e9 / static_cast<double>(nwin));
  StreamSource src{*this, in, pos, limit, deadline, start, win_ns,
                   secs < 0 ? nullptr : &win_ops, &win_steal, spans};
  src.steal_mark = steal_ticks();
  closed_loop(in.conns, spec_.depth, deadline, src);
  win_steal[src.steal_win] += steal_ticks() - src.steal_mark;
  if (secs < 0) {
    return {};
  }
  // Windows with host steal are set aside, as in run_open, as long as at
  // least half of them stay.
  std::vector<double> rates;
  unsigned clean = 0;
  for (uint64_t t : win_steal) {
    rates.push_back(steal_rate(t, static_cast<double>(win_ns) / 1e9));
    clean += t == 0;
  }
  std::vector<double> kops;
  for (size_t w : least_stolen(rates, std::max<size_t>(clean, (nwin + 1) / 2))) {
    kops.push_back(static_cast<double>(win_ops[w]) / (static_cast<double>(win_ns) / 1e9) / 1e3);
  }
  std::printf("info closed loop: %zu of %zu windows kept\n", kops.size(), nwin);
  return kops;
}

// The open loop runs as consecutive segments of kSegmentSecs, each with its
// own Poisson schedule, and the host's steal (CPU time the hypervisor gave to
// other guests) is read around each. A segment is clean if no steal tick
// fell in it: one stolen tick is 10 ms, enough to put a segment's p99 in the
// milliseconds. Segments run until the planned count of clean ones is
// reached, or kSegmentBudget times that many ran. The planned count of
// least-stolen segments is kept: the figures are whole-phase percentiles
// over their merged histograms. Steal is the other tenants' doing, not the
// code's, and which segments are kept depends on nothing but steal.
void Bench::run_open(Instance& in, OpenResult* out, SpanBuffer* spans) {
  std::vector<std::unique_ptr<OpenResult>> segs;
  std::vector<double> rates;
  unsigned clean = 0;
  size_t first = 0;
  int64_t t0 = now_ns();
  for (size_t s = 0; s < schedules_.size() && clean < planned_segments_; ++s) {
    segs.push_back(std::make_unique<OpenResult>());
    run_segment(in, s, first, segs.back().get(), spans);
    first += schedules_[s].size();
    rates.push_back(steal_rate(segs.back()->steal, segs.back()->secs));
    clean += segs.back()->steal == 0;
  }
  std::vector<size_t> keep = least_stolen(rates, planned_segments_);
  uint64_t aside_steal = 0;
  for (size_t i = 0, k = 0; i < segs.size(); ++i) {
    const OpenResult& seg = *segs[i];
    bool kept = k < keep.size() && keep[k] == i;
    k += kept;
    std::printf("info open segment %zu: n=%llu p50=%.1fus p99=%.1fus max=%.1fus steal=%llu %s\n",
                i, static_cast<unsigned long long>(seg.completed), seg.percentile_us(0.5),
                seg.percentile_us(0.99), static_cast<double>(seg.latency.max()) / 1e3,
                static_cast<unsigned long long>(seg.steal), kept ? "kept" : "set aside");
    if (kept) {
      *out += seg;
    } else {
      aside_steal += seg.steal;
    }
  }
  std::printf("info open loop: %zu of %zu segments kept, %u clean, %llu steal ticks set aside\n",
              keep.size(), segs.size(), clean, static_cast<unsigned long long>(aside_steal));
  if (clean < planned_segments_) {
    std::printf("WARNING: host steal in %zu of %zu open-loop segments\n", segs.size() - clean,
                segs.size());
  }
  out->secs = static_cast<double>(now_ns() - t0) / 1e9;
}

// One segment: schedules_[seg], whose requests are open_ops_[first ...].
void Bench::run_segment(Instance& in, size_t seg, size_t first, OpenResult* out,
                        SpanBuffer* spans) {
  struct OpenSource {
    Bench& b;
    Instance& in;
    OpenResult* out;
    RequestSpans spans;
    void encode(Conn& c, Pending& p) {
      size_t at = c.begin_frame();
      b.encode_op(&c.tx, b.open_ops_[p.first], &in.user_bytes);
      c.end_frame(at);
      ++b.attempted_;
    }
    void complete(const Pending& p, std::string_view body, int64_t done) {
      uint64_t before = b.failed_;
      b.check_frame(b.open_ops_, p, body);
      if (b.failed_ == before) {
        out->latency.record(static_cast<uint64_t>(std::max<int64_t>(0, done - p.intended)));
        ++out->completed;
      }
      if (spans.buf != nullptr) {
        spans.record(p.first, p, done, now_ns());
      }
    }
    void lost(const Pending& p) {
      ++b.failed_;
      if (p.intended == 0) {
        ++b.attempted_;  // dropped before it was ever encoded
      }
      b.fail("open-loop request lost", {});
    }
  };
  OpenSource src{*this, in, out, spans};
  uint64_t steal0 = steal_ticks();
  double cpu0 = process_cpu_s();
  double gen0 = thread_cpu_s();
  int64_t start = now_ns() + 1'000'000;
  open_loop(in.conns, schedules_[seg], first, start, src, out->lag);
  int64_t end = now_ns();
  out->gen_cpu_s = thread_cpu_s() - gen0;
  out->server_cpu_s = process_cpu_s() - cpu0 - out->gen_cpu_s;
  out->secs = static_cast<double>(end - start) / 1e9;
  out->steal = steal_ticks() - steal0;
}

// Every (key, value) of the store, read over the wire in kScan pages.
uint64_t Bench::wire_digest(Instance& in, uint64_t* pairs) {
  Conn& c = in.conns[0];
  std::string start;
  uint64_t h = 0;
  *pairs = 0;
  for (;;) {
    size_t at = c.begin_frame();
    netwire::encode_scan(&c.tx, start, kDigestPage, 0);
    c.end_frame(at);
    Pending& p = c.pending.push();
    p = Pending{};
    c.unsent = c.pending.tail();
    ++attempted_;
    uint32_t got = 0;
    bool done = false;
    bool ok = true;
    int64_t limit = now_ns() + 30'000'000'000;
    c.flush();
    while (!done && ok && now_ns() < limit) {
      // The callback clears `ok` on a bad page; receive() returns whether
      // the peer is still there, which must not set it back.
      bool alive = c.receive([&](Pending&, std::string_view body) {
        netwire::Reader r(body);
        uint8_t status = 1;
        if (!r.read(&status) || status != 0 || !r.read(&got)) {
          ok = false;
        }
        for (uint32_t i = 0; ok && i < got; ++i) {
          uint32_t kl = 0;
          uint32_t vl = 0;
          std::string_view k;
          std::string_view v;
          if (!r.read(&kl) || !r.read_bytes(kl, &k) || !r.read(&vl) || !r.read_bytes(vl, &v) ||
              !check_value(spec_.value, json_, k, v)) {
            ok = false;
            break;
          }
          h = fold(h, k, v);
          start.assign(k);
        }
        done = true;
      });
      ok = ok && alive;
      if (!done) {
        ::usleep(50);
        c.flush();
      }
    }
    if (!done || !ok) {
      fail("digest scan", start);
      while (!c.pending.empty()) {
        c.pending.pop();
      }
      return 0;
    }
    *pairs += got;
    if (got < kDigestPage) {
      return h;
    }
    start.push_back('\0');  // the smallest key after the last one returned
  }
}

uint64_t Bench::store_digest(Store& store, uint64_t* pairs) {
  Store::Session s(store, 0);
  uint64_t h = 0;
  *pairs = 0;
  store.getrange(std::string_view(), SIZE_MAX, 0,
                 [&](std::string_view k, std::string_view v, const masstree::Row*) {
                   h = fold(h, k, v);
                   ++*pairs;
                   return true;
                 },
                 s);
  return h;
}

// Clean stop, then Store::recover of the run's log directory into a fresh
// Store; its contents must equal what the live store served. Recoveries run
// until kRecoveries of them are clean (host steal at most kMaxRecoverySteal),
// or kRecoveryBudget ran. Returns the median time of the kRecoveries least
// stolen.
double Bench::recover(Instance& in, uint64_t live_digest, uint64_t live_pairs,
                      uint64_t* log_bytes) {
  in.store->sync_logs();
  for (Conn& c : in.conns) {
    if (c.fd >= 0) {
      ::close(c.fd);
      c.fd = -1;
    }
  }
  in.server->stop();
  in.server.reset();
  in.store.reset();
  *log_bytes = dir_bytes(in.log_dir);
  // Every recovery reads the same directory into a fresh Store and is
  // checked; the first seals the logs at their cutoff, so the later ones
  // replay exactly the same records.
  std::vector<double> secs;
  std::vector<double> rates;
  unsigned clean = 0;
  for (unsigned r = 0; r < kRecoveryBudget && clean < kRecoveries; ++r) {
    uint64_t steal0 = steal_ticks();
    int64_t t0 = now_ns();
    auto rec = std::make_unique<Store>(Store::Options());
    rec->recover("", in.log_dir, kServerWorkers);
    secs.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    rates.push_back(steal_rate(steal_ticks() - steal0, secs.back()));
    clean += rates.back() <= kMaxRecoverySteal;
    uint64_t pairs = 0;
    uint64_t digest = store_digest(*rec, &pairs);
    if (digest != live_digest || pairs != live_pairs) {
      fail("recovered store differs from the live store", {});
      std::fprintf(stderr, "  recovery %u: live pairs %llu, recovered pairs %llu\n", r,
                   static_cast<unsigned long long>(live_pairs),
                   static_cast<unsigned long long>(pairs));
    }
  }
  std::filesystem::remove_all(in.log_dir);
  std::printf("info recover_s runs (s, steal ticks/s):");
  for (size_t i = 0; i < secs.size(); ++i) {
    std::printf(" %.4f/%.1f", secs[i], rates[i]);
  }
  std::printf("\n");
  std::vector<double> kept;
  for (size_t i : least_stolen(rates, kRecoveries)) {
    kept.push_back(secs[i]);
  }
  return median(kept);
}


// Writes shaped like the workload's own (overwrites on its key distribution,
// or fresh inserts for scan_insert), for the duels.
std::vector<Op> Bench::write_stream(size_t n, uint64_t seed) {
  WorkloadSpec w = spec_;
  w.get_pct = 0;
  w.scan_pct = 0;
  bool inserts = spec_.insert_pct > 0;
  w.put_pct = inserts ? 0 : 100;
  w.insert_pct = inserts ? 100 : 0;
  return make_stream(w, keys_count_, n, seed, 3'000'000'000u, &next_fresh_);
}

// The planned segments' open-loop stream plus, for op kinds the workload
// never issues, a probe stream over its keyspace, so every layer entry point
// gets timed.
//
// The wire phase already applied the stream's inserts, so replayed inserts
// take keys of their own to stay inserts.
std::vector<Op> Bench::replay_ops() {
  std::vector<Op> ops(open_ops_.begin(), open_ops_.begin() + planned_ops_);
  bool has[4] = {false, false, false, false};
  for (Op& op : ops) {
    has[static_cast<int>(op.kind)] = true;
    if (op.kind == OpKind::kInsert) {
      op.key = next_fresh_++;
    }
  }
  for (int k = 0; k < 4; ++k) {
    if (has[k]) {
      continue;
    }
    WorkloadSpec w = spec_;
    w.get_pct = k == 0 ? 100 : 0;
    w.put_pct = k == 1 ? 100 : 0;
    w.scan_pct = k == 2 ? 100 : 0;
    w.insert_pct = k == 3 ? 100 : 0;
    size_t n = k == 2 ? probe_ops_ / 8 : probe_ops_;
    auto probe = make_stream(w, keys_count_, n, args_.seed ^ (0x9e0 + k), 2'000'000'000u,
                             &next_fresh_);
    ops.insert(ops.end(), probe.begin(), probe.end());
  }
  return ops;
}

// In-process replay through the kvstore layer, in batches of kReplayBatch
// consecutive ops: gets as one Store::multiget, puts as one Store::multiput,
// scans and inserts one call each. Spans around every call; the session's
// counters are snapshotted around each span.
void Bench::replay(Store& store, Report& rep, double server_cpu_us_per_op, SpanBuffer& spans) {
  Store::Session s(store, kServerWorkers);
  ThreadCounters& ctr = s.ti().counters();
  uint32_t n_batch = spans.name_id("replay.batch");
  uint32_t n_mg = spans.name_id("kvstore.multiget");
  uint32_t n_mp = spans.name_id("kvstore.multiput");
  uint32_t n_gr = spans.name_id("kvstore.getrange");
  uint32_t n_put = spans.name_id("kvstore.put");
  uint32_t n_sync = spans.name_id("log.sync_logs");
  CallStats mg, mp, gr, put;
  double stream_ns = 0;
  uint64_t stream_ops = 0;

  std::vector<std::string_view> gkeys;
  std::vector<Store::MultigetResult> gout;
  std::vector<Store::PutOp> pops;
  std::vector<ColumnUpdate> pcols(kReplayBatch);
  std::vector<char> pvals(kReplayBatch * kJsonLen);
  std::vector<ColumnUpdate> one(1);
  std::string prev;
  const size_t vlen = value_len(spec_.value);
  for (size_t base = 0; base < replay_ops_.size(); base += kReplayBatch) {
    size_t end = std::min(replay_ops_.size(), base + kReplayBatch);
    bool from_stream = base < planned_ops_;
    uint64_t id = base / kReplayBatch;
    int64_t b0 = now_ns();
    uint32_t root = spans.open(n_batch, SpanBuffer::kNone, id, b0);
    gkeys.clear();
    pops.clear();
    for (size_t i = base; i < end; ++i) {
      const Op& op = replay_ops_[i];
      if (op.kind == OpKind::kGet) {
        gkeys.push_back(op_key(op));
      } else if (op.kind == OpKind::kPut) {
        size_t j = pops.size();
        make_value(spec_.value, json_, op_key(op), op.ver, pvals.data() + j * kJsonLen);
        pcols[j] = ColumnUpdate{0, std::string_view(pvals.data() + j * kJsonLen, vlen)};
        Store::PutOp po;
        po.key = op_key(op);
        po.updates = std::span<const ColumnUpdate>(&pcols[j], 1);
        pops.push_back(po);
      }
    }
    if (!gkeys.empty()) {
      ThreadCounters before = ctr;
      int64_t t0 = now_ns();
      store.multiget(gkeys, {}, &gout, s);
      int64_t t1 = now_ns();
      mg.add(before, ctr, gkeys.size(), t0, t1);
      spans.add(n_mg, root, id, t0, t1);
      for (size_t i = 0; i < gkeys.size(); ++i) {
        if (!gout[i].found || gout[i].columns.size() != 1 ||
            !check_value(spec_.value, json_, gkeys[i], gout[i].columns[0])) {
          fail("replay multiget", gkeys[i]);
        }
      }
      if (from_stream) {
        stream_ns += static_cast<double>(t1 - t0);
      }
    }
    if (!pops.empty()) {
      ThreadCounters before = ctr;
      int64_t t0 = now_ns();
      store.multiput(pops, s);
      int64_t t1 = now_ns();
      mp.add(before, ctr, pops.size(), t0, t1);
      spans.add(n_mp, root, id, t0, t1);
      for (const Store::PutOp& po : pops) {
        if (po.rejected) {
          fail("replay multiput", po.key);
        }
      }
      if (from_stream) {
        stream_ns += static_cast<double>(t1 - t0);
      }
    }
    for (size_t i = base; i < end; ++i) {
      const Op& op = replay_ops_[i];
      std::string_view key = op_key(op);
      if (op.kind == OpKind::kScan) {
        size_t got = 0;
        bool ok = true;
        ThreadCounters before = ctr;
        int64_t t0 = now_ns();
        // Keys handed to emit live in the cursor's buffer only until the
        // next batch, so the previous key is copied (into reused capacity).
        store.getrange(key, op.scan_len, 0,
                       [&](std::string_view k, std::string_view v, const masstree::Row*) {
                         ok = ok && (got == 0 ? k >= key : k > std::string_view(prev)) &&
                              check_value(spec_.value, json_, k, v);
                         prev.assign(k);
                         ++got;
                         return true;
                       },
                       s);
        int64_t t1 = now_ns();
        gr.add(before, ctr, got, t0, t1);
        spans.add(n_gr, root, id, t0, t1);
        if (!ok || (got < op.scan_len && sorted_->count_at_or_after(prev) > 1)) {
          fail("replay getrange", key);
        }
        if (from_stream) {
          stream_ns += static_cast<double>(t1 - t0);
        }
      } else if (op.kind == OpKind::kInsert) {
        make_value(spec_.value, json_, key, 0, valbuf_);
        one[0] = ColumnUpdate{0, std::string_view(valbuf_, vlen)};
        ThreadCounters before = ctr;
        int64_t t0 = now_ns();
        store.put(key, one, s);
        int64_t t1 = now_ns();
        put.add(before, ctr, 1, t0, t1);
        spans.add(n_put, root, id, t0, t1);
        if (from_stream) {
          stream_ns += static_cast<double>(t1 - t0);
        }
      }
    }
    if (from_stream) {
      stream_ops += end - base;
    }
    spans.close(root, now_ns());
  }
  int64_t t0 = now_ns();
  store.sync_logs();
  int64_t t1 = now_ns();
  spans.add(n_sync, SpanBuffer::kNone, 0, t0, t1);

  double lookups = static_cast<double>(mg.get(Counter::kCacheHits) + mg.get(Counter::kCacheMisses));
  uint64_t appends = mp.get(Counter::kLogAppends) + put.get(Counter::kLogAppends);
  uint64_t phys = mp.get(Counter::kLogBytesPhysical) + put.get(Counter::kLogBytesPhysical);
  uint64_t logical = mp.get(Counter::kLogBytesLogical) + put.get(Counter::kLogBytesLogical);
  uint64_t stalls = mp.get(Counter::kLogStalls) + put.get(Counter::kLogStalls);
  rep.add("net.overhead_us_per_op",
          server_cpu_us_per_op - ratio(stream_ns, static_cast<double>(stream_ops)) / 1e3, "us/op");
  rep.add("kvstore.multiget_ns_per_key", mg.per_item_ns(), "ns");
  rep.add("kvstore.multiput_ns_per_key", mp.per_item_ns(), "ns");
  rep.add("core.multiput_fallback_pct",
          100 * ratio(static_cast<double>(mp.get(Counter::kMultiputRetries)),
                      static_cast<double>(mp.items)),
          "%");
  rep.add("kvstore.getrange_ns_per_pair", gr.per_item_ns(), "ns");
  rep.add("kvstore.put_ns", put.per_item_ns(), "ns");
  rep.add("core.splits_per_kinsert",
          1000 * ratio(static_cast<double>(put.get(Counter::kPutSplit)),
                       static_cast<double>(put.items)),
          "count");
  rep.add("cache.hit_pct", 100 * ratio(static_cast<double>(mg.get(Counter::kCacheHits)), lookups),
          "%");
  rep.add("cache.invalidation_pct",
          100 * ratio(static_cast<double>(mg.get(Counter::kCacheInvalidations)), lookups), "%");
  rep.add("cache.evictions_per_kget",
          1000 * ratio(static_cast<double>(mg.get(Counter::kCacheEvictions)),
                       static_cast<double>(mg.items)),
          "count");
  rep.add("log.bytes_per_append", ratio(static_cast<double>(phys), static_cast<double>(appends)),
          "B");
  rep.add("log.compression_ratio", ratio(static_cast<double>(logical), static_cast<double>(phys)),
          "x");
  rep.add("log.stalls_per_kappend",
          1000 * ratio(static_cast<double>(stalls), static_cast<double>(appends)), "count");
  rep.add("log.sync_ms", static_cast<double>(t1 - t0) / 1e6, "ms");
  scan_layer_ += gr;
}

// The core layer alone: a bare Tree (no record cache, no rows, no log)
// holding the base keys, driven with the replay's batches through
// Tree::multiget and Tree::scan_batch, then the multiput duel.
void Bench::core_pass(Report& rep, SpanBuffer& spans) {
  masstree::ThreadContext ti;
  ThreadCounters& ctr = ti.counters();
  auto tree = std::make_unique<Tree>(ti);
  {
    std::vector<Tree::PutRequest> reqs;
    for (uint64_t i = 0; i < keys_count_; i += 1024) {
      reqs.clear();
      for (uint64_t j = i; j < std::min<uint64_t>(keys_count_, i + 1024); ++j) {
        Tree::PutRequest rq;
        rq.key = keys_[j];
        rq.value = j + 1;
        reqs.push_back(rq);
      }
      tree->multiput(reqs, ti);
    }
  }
  uint32_t n_mg = spans.name_id("core.multiget");
  uint32_t n_sc = spans.name_id("core.scan_batch");
  CallStats mg, sc;
  std::vector<Tree::GetRequest> greqs;
  for (size_t base = 0; base < replay_ops_.size(); base += kReplayBatch) {
    size_t end = std::min(replay_ops_.size(), base + kReplayBatch);
    uint64_t id = base / kReplayBatch;
    greqs.clear();
    for (size_t i = base; i < end; ++i) {
      if (replay_ops_[i].kind == OpKind::kGet) {
        Tree::GetRequest g;
        g.key = op_key(replay_ops_[i]);
        greqs.push_back(g);
      }
    }
    if (!greqs.empty()) {
      ThreadCounters before = ctr;
      int64_t t0 = now_ns();
      size_t found = tree->multiget(greqs, ti);
      int64_t t1 = now_ns();
      mg.add(before, ctr, greqs.size(), t0, t1);
      spans.add(n_mg, SpanBuffer::kNone, id, t0, t1);
      if (found != greqs.size()) {
        fail("core multiget", greqs[0].key);
      }
    }
    for (size_t i = base; i < end; ++i) {
      const Op& op = replay_ops_[i];
      if (op.kind != OpKind::kScan) {
        continue;
      }
      size_t got = 0;
      ThreadCounters before = ctr;
      int64_t t0 = now_ns();
      tree->scan_batch(op_key(op), op.scan_len,
                       [&](std::string_view, uint64_t) {
                         ++got;
                         return true;
                       },
                       ti);
      int64_t t1 = now_ns();
      sc.add(before, ctr, got, t0, t1);
      spans.add(n_sc, SpanBuffer::kNone, id, t0, t1);
    }
  }
  scan_layer_ += sc;
  rep.add("core.multiget_ns_per_key", mg.per_item_ns(), "ns");
  rep.add("core.multiget_retries_per_mkey",
          1e6 * ratio(static_cast<double>(mg.get(Counter::kMultigetRetry)),
                      static_cast<double>(mg.items)),
          "count");
  rep.add("core.scan_ns_per_pair", sc.per_item_ns(), "ns");
  rep.add("core.scan_retry_pct",
          100 * ratio(static_cast<double>(scan_layer_.get(Counter::kScanRetries)),
                      static_cast<double>(scan_layer_.get(Counter::kScanNodes))),
          "%");
  rep.add("core.scan_allocs", static_cast<double>(scan_layer_.get(Counter::kScanAllocs)), "count");

  // Multiput duel: the same batches through Tree::multiput and through
  // sequential Tree::insert, chunk-interleaved (ABBA), median of the
  // per-chunk time ratios.
  std::vector<Tree::PutRequest> reqs(kReplayBatch);
  auto run_multiput = [&](size_t lo, size_t hi) {
    int64_t t0 = now_ns();
    for (size_t b = lo; b < hi; b += kReplayBatch) {
      size_t n = std::min(kReplayBatch, hi - b);
      for (size_t i = 0; i < n; ++i) {
        reqs[i] = Tree::PutRequest{};
        reqs[i].key = op_key(duel_ops_[b + i]);
        reqs[i].value = b + i + 1;
      }
      tree->multiput(std::span<Tree::PutRequest>(reqs.data(), n), ti);
    }
    return static_cast<double>(now_ns() - t0);
  };
  auto run_insert = [&](size_t lo, size_t hi) {
    int64_t t0 = now_ns();
    uint64_t old = 0;
    for (size_t i = lo; i < hi; ++i) {
      tree->insert(op_key(duel_ops_[i]), i + 1, &old, ti);
    }
    return static_cast<double>(now_ns() - t0);
  };
  std::vector<double> ratios;
  size_t chunk = duel_chunk();
  run_insert(0, duel_ops_.size());  // warm leg: every key present, caches warm
  for (size_t c = 0; c + chunk <= duel_ops_.size(); c += chunk) {
    bool batched_first = (c / chunk) % 2 == 0;
    double tm = 0;
    double ts = 0;
    if (batched_first) {
      tm = run_multiput(c, c + chunk);
      ts = run_insert(c, c + chunk);
    } else {
      ts = run_insert(c, c + chunk);
      tm = run_multiput(c, c + chunk);
    }
    ratios.push_back(ratio(ts, tm));
  }
  double speedup = median(ratios);
  rep.add("core.multiput_speedup", speedup, "x");
  std::printf("info core.multiput_speedup: median of %zu chunk ratios (Tree::insert time / "
              "Tree::multiput time, %zu puts per chunk, batches of %zu)\n",
              ratios.size(), chunk, kReplayBatch);
  tree.reset();
}

// log.overhead_pct: the same Store::multiput batches into a logged and an
// unlogged Store, chunk-interleaved (ABBA), median of per-chunk time ratios.
double Bench::log_duel() {
  std::string dir = args_.work_dir + "/log-duel";
  std::filesystem::remove_all(dir);
  double overhead = log_duel_in(dir);
  std::filesystem::remove_all(dir);
  return overhead;
}

double Bench::log_duel_in(const std::string& dir) {
  Store::Options lo;
  lo.log_dir = dir;
  Store logged(lo);
  Store plain{Store::Options()};
  Store::Session sl(logged, 0);
  Store::Session sp(plain, 0);
  const size_t vlen = value_len(spec_.value);
  std::vector<char> vals(kReplayBatch * kJsonLen);
  std::vector<ColumnUpdate> cols(kReplayBatch);
  std::vector<Store::PutOp> ops(kReplayBatch);
  auto leg = [&](Store& st, Store::Session& s, size_t lo_i, size_t hi_i) {
    int64_t t0 = now_ns();
    for (size_t b = lo_i; b < hi_i; b += kReplayBatch) {
      size_t n = std::min(kReplayBatch, hi_i - b);
      for (size_t i = 0; i < n; ++i) {
        const Op& op = duel_ops_[b + i];
        make_value(spec_.value, json_, op_key(op), op.ver, vals.data() + i * kJsonLen);
        cols[i] = ColumnUpdate{0, std::string_view(vals.data() + i * kJsonLen, vlen)};
        ops[i] = Store::PutOp{};
        ops[i].key = op_key(op);
        ops[i].updates = std::span<const ColumnUpdate>(&cols[i], 1);
      }
      st.multiput(std::span<Store::PutOp>(ops.data(), n), s);
    }
    return static_cast<double>(now_ns() - t0);
  };
  size_t chunk = duel_chunk();
  leg(logged, sl, 0, chunk);  // warm legs
  leg(plain, sp, 0, chunk);
  std::vector<double> ratios;
  for (size_t c = 0; c + chunk <= duel_ops_.size(); c += chunk) {
    double tl = 0;
    double tp = 0;
    if ((c / chunk) % 2 == 0) {
      tl = leg(logged, sl, c, c + chunk);
      tp = leg(plain, sp, c, c + chunk);
    } else {
      tp = leg(plain, sp, c, c + chunk);
      tl = leg(logged, sl, c, c + chunk);
    }
    ratios.push_back(ratio(tl, tp));
  }
  std::printf("info log.overhead_pct: median of %zu chunk ratios (logged Store::multiput time / "
              "unlogged, %zu puts per chunk)\n",
              ratios.size(), chunk);
  return (median(ratios) - 1) * 100;
}

// Writes the spans to <work-dir>/trace-<workload>-<part>.tsv and prints each
// span name's count, mean duration and mean self time.
void Bench::write_spans(const SpanBuffer& spans, const char* part) {
  std::string path = args_.work_dir + "/trace-" + spec_.name + "-" + part + ".tsv";
  if (!spans.write_tsv(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
  auto totals = spans.totals();
  std::printf("info spans: %zu recorded, %llu dropped, written to %s\n", spans.spans().size(),
              static_cast<unsigned long long>(spans.dropped()), path.c_str());
  for (size_t i = 0; i < totals.size(); ++i) {
    const auto& t = totals[i];
    std::printf("span %-20s count %9llu  total %10.3f us/span  self %10.3f us/span\n",
                spans.names()[i].c_str(), static_cast<unsigned long long>(t.count),
                ratio(t.total_ns, static_cast<double>(t.count)) / 1e3,
                ratio(t.self_ns, static_cast<double>(t.count)) / 1e3);
  }
}

void print_latency(const char* what, const Histogram& h) {
  std::printf("info %s: n=%llu p50=%.1fus p99=%.1fus (%llu beyond) p999=%.1fus (%llu beyond) "
              "max=%.1fus\n",
              what, static_cast<unsigned long long>(h.count()),
              static_cast<double>(h.percentile(0.5)) / 1e3,
              static_cast<double>(h.percentile(0.99)) / 1e3,
              static_cast<unsigned long long>(h.beyond(0.99)),
              static_cast<double>(h.percentile(0.999)) / 1e3,
              static_cast<unsigned long long>(h.beyond(0.999)),
              static_cast<double>(h.max()) / 1e3);
}

int Bench::run() {
  // ---- inputs, all before any timed window ------------------------------
  keys_ = KeyTable::base(keys_count_);
  if (spec_.scan_pct > 0 || args_.trace) {  // the replay probes scans everywhere
    sorted_.emplace(keys_);
  }
  const uint64_t seed = args_.seed;
  size_t closed_len = args_.tiny ? 20000 : 2000000;
  closed_ops_ = make_stream(spec_, keys_count_, closed_len, splitmix64(seed ^ 0xc105ed), 1,
                            &next_fresh_);
  size_t open_len = 0;
  const double seg_secs = open_secs_ / planned_segments_;
  for (unsigned s = 0; s < kSegmentBudget * planned_segments_; ++s) {
    schedules_.push_back(
        poisson_schedule(open_rate_, seg_secs, splitmix64(seed ^ 0x0be7 ^ (uint64_t{s} << 32))));
    open_len += schedules_.back().size();
    if (s + 1 == planned_segments_) {
      planned_ops_ = open_len;
    }
  }
  open_ops_ = make_stream(spec_, keys_count_, open_len, splitmix64(seed ^ 0x0be9), 1'000'000'000u,
                          &next_fresh_);
  if (args_.trace) {
    replay_ops_ = replay_ops();
    duel_ops_ = write_stream(duel_chunk() * (args_.tiny ? 4 : 16), splitmix64(seed ^ 0xd0e1));
  }
  fresh_ = KeyTable::fresh(std::max<uint32_t>(next_fresh_, 1), seed);

  std::filesystem::create_directories(args_.work_dir);
  std::printf("config {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
              "\"scale\": \"%s\", \"keys\": %llu, \"value_bytes\": %zu, "
              "\"open_rate_per_s\": %g, \"open_segments\": %u, \"open_segment_s\": %g, "
              "\"planned_open_requests\": %zu, \"closed_frame_ops\": %u, "
              "\"closed_depth\": %u, \"conns\": %u, \"server_workers\": %u, "
              "\"cache_capacity\": %zu, \"group_commit_ms\": %llu, \"log_dir_fs\": \"%s\", "
              "\"build_type\": \"%s\"}\n",
              spec_.name, static_cast<unsigned long long>(seed), args_.seconds,
              args_.trace ? 1 : 0, args_.tiny ? "tiny" : "full",
              static_cast<unsigned long long>(keys_count_), value_len(spec_.value), open_rate_,
              planned_segments_, seg_secs, planned_ops_, spec_.frame_ops, spec_.depth, kConns,
              kServerWorkers,
              Store::Options().cache_capacity,
              static_cast<unsigned long long>(Store::Options().logger.flush_interval_ms),
              fs_name(args_.work_dir).c_str(), PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);
  const double rss0 = rss_mb();
  Report rep;
  OpenResult open;
  bool valid = true;
  std::vector<double> setups;

  if (!args_.open_part && !args_.trace) {
    // Closed part: the process's first Store runs the closed loop; rss_mb is
    // read at its end. A second set-up, timed only, follows.
    Instance in;
    setups.push_back(setup(in, "closed"));
    size_t pos = warm_ops_;
    auto kops = run_closed(in, closed_secs_, &pos, nullptr);
    rep.add("rss_mb", rss_mb() - rss0, "MB");
    teardown(in);
    {
      Instance again;
      setups.push_back(setup(again, "closed"));
      teardown(again);
    }
    std::printf("info window kops:");
    for (double k : kops) {
      std::printf(" %.0f", k);
    }
    std::printf("\n");
    rep.add("throughput_kops", median(kops), "kops/s");
  } else if (!args_.trace) {
    // Open part: the process's first Store serves the open loop and is then
    // read back, stopped and recovered.
    Instance in;
    setups.push_back(setup(in, "open"));
    run_open(in, &open, nullptr);
    valid = valid_lag(open.lag);
    uint64_t live_pairs = 0;
    uint64_t live = wire_digest(in, &live_pairs);
    in.store->sync_logs();
    double amp = ratio(static_cast<double>(in.store->log_totals().flush_bytes),
                       static_cast<double>(in.user_bytes));
    uint64_t log_bytes = 0;
    double rec = recover(in, live, live_pairs, &log_bytes);
    print_latency("open-loop latency", open.latency);
    print_latency("generator lag", open.lag);
    rep.add("p50_us", open.percentile_us(0.5), "us");
    rep.add("p99_us", open.percentile_us(0.99), "us");
    rep.add("server_cpu_us_per_op", open.server_cpu_us_per_op(), "us/op");
    rep.add("log_write_amp", amp, "ratio");
    rep.add("recover_s", rec, "s");
    std::printf("info gen.lag_p99_us %.3f gen.cpu_us_per_op %.3f log_bytes %llu\n",
                static_cast<double>(open.lag.percentile(0.99)) / 1e3,
                1e6 * ratio(open.gen_cpu_s, static_cast<double>(open.completed)),
                static_cast<unsigned long long>(log_bytes));
  } else if (!args_.open_part) {
    // Closed part, traced: closed-loop legs untraced and traced, interleaved
    // (U T T U), and the server's batch formation over all of them.
    SpanBuffer spans(args_.tiny ? 200000 : 2000000);
    std::vector<double> kops_u;
    std::vector<double> kops_t;
    Instance b;
    setup(b, "closed");
    size_t pos = warm_ops_;
    uint64_t g0 = b.server->batched_gets(), gb0 = b.server->batches_formed();
    uint64_t p0 = b.server->batched_puts(), pb0 = b.server->wbatches_formed();
    for (int leg = 0; leg < 4; ++leg) {
      bool traced = leg == 1 || leg == 2;
      auto w = run_closed(b, closed_secs_ / 4, &pos, traced ? &spans : nullptr);
      (traced ? kops_t : kops_u).insert((traced ? kops_t : kops_u).end(), w.begin(), w.end());
    }
    rep.add("net.ops_per_rbatch",
            ratio(static_cast<double>(b.server->batched_gets() - g0),
                  static_cast<double>(b.server->batches_formed() - gb0)),
            "ops");
    rep.add("net.ops_per_wbatch",
            ratio(static_cast<double>(b.server->batched_puts() - p0),
                  static_cast<double>(b.server->wbatches_formed() - pb0)),
            "ops");
    teardown(b);
    rep.add("trace.overhead_pct", 100 * (ratio(median(kops_u), median(kops_t)) - 1), "%");
    write_spans(spans, "closed");
  } else {
    // Open part, traced: the open loop with generator-side spans, then the
    // in-process replay, recovery, the core-only pass and the log duel.
    SpanBuffer spans(args_.tiny ? 200000 : 2000000);
    Instance c;
    setup(c, "open");
    uint64_t s0 = c.server->ops_served();
    uint64_t bg0 = c.server->batched_gets() + c.server->batched_puts();
    auto lt0 = c.store->log_totals();
    run_open(c, &open, &spans);
    auto lt1 = c.store->log_totals();
    valid = valid_lag(open.lag);
    double served = static_cast<double>(c.server->ops_served() - s0);
    double batched =
        static_cast<double>(c.server->batched_gets() + c.server->batched_puts() - bg0);
    rep.add("net.batched_pct", 100 * ratio(batched, served), "%");
    double cpu_per_op = open.server_cpu_us_per_op();
    rep.add("gen.lag_p99_us", static_cast<double>(open.lag.percentile(0.99)) / 1e3, "us");
    rep.add("gen.cpu_us_per_op", 1e6 * ratio(open.gen_cpu_s, static_cast<double>(open.completed)),
            "us/op");
    rep.add("log.bytes_per_flush",
            ratio(static_cast<double>(lt1.flush_bytes - lt0.flush_bytes),
                  static_cast<double>(lt1.flushes - lt0.flushes)),
            "B");
    rep.add("log.syncs_per_s", ratio(static_cast<double>(lt1.syncs - lt0.syncs), open.secs),
            "1/s");
    print_latency("open-loop latency (traced)", open.latency);
    {
      auto st = c.store->stats();
      rep.add("core.node_bytes_per_key",
              ratio(static_cast<double>(st.node_bytes), static_cast<double>(st.keys)), "B");
    }
    replay(*c.store, rep, cpu_per_op, spans);
    // Read back after the replay, which wrote through the same store.
    uint64_t live_pairs = 0;
    uint64_t live = wire_digest(c, &live_pairs);
    uint64_t log_bytes = 0;
    double rec = recover(c, live, live_pairs, &log_bytes);
    rep.add("log.recover_mb_per_s", ratio(static_cast<double>(log_bytes) / 1e6, rec), "MB/s");
    core_pass(rep, spans);
    rep.add("log.overhead_pct", log_duel(), "%");
    write_spans(spans, "open");
  }
  std::printf("info failed ops: %llu of %llu\n", static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  if (!valid) {
    return 3;
  }
  bool correct = failed_ == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : rep.metrics()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    json += first ? "" : ", ";
    json += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}, \"setup_s_samples\": [";
  for (size_t k = 0; k < setups.size(); ++k) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%.9g", k == 0 ? "" : ", ", setups[k]);
    json += buf;
  }
  json += "]}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <read_uniform|rw_zipf_logged|scan_insert> "
               "--part <closed|open> --seed <n> --seconds <s> --trace <0|1> "
               "[--scale full|tiny] [--work-dir <dir>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Timed sleeps in the open-loop generator wake within a microsecond
  // instead of the default 50 us slack.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  Args args;
  bool has_part = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string_view k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      args.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      args.trace = v == "1";
    } else if (k == "--part") {
      if (v != "open" && v != "closed") {
        return usage();
      }
      args.open_part = v == "open";
      has_part = true;
    } else if (k == "--scale") {
      args.tiny = v == "tiny";
    } else if (k == "--work-dir") {
      args.work_dir = v;
    } else {
      return usage();
    }
  }
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr || !has_part || argc % 2 == 0 || args.seconds <= 0) {
    return usage();
  }
  try {
    Bench bench(*spec, args);
    return bench.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
