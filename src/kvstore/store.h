// Store — the complete Masstree storage system (§3, §4.7, §5): the
// concurrent tree over multi-column rows, per-worker logging with group
// commit, checkpointing, and crash recovery.
//
// Interface per §3: getc(k), putc(k,v), remove(k), getrangec(k,n), where the
// optional column list selects subsets of a key's value.

#ifndef MASSTREE_KVSTORE_STORE_H_
#define MASSTREE_KVSTORE_STORE_H_

#include <sys/stat.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "core/tree.h"
#include "log/logger.h"
#include "log/recovery.h"
#include "util/io.h"
#include "util/timing.h"
#include "value/row.h"

namespace masstree {

// Thrown by the legacy bool write APIs when the store has degraded to
// read-only (sticky log/checkpoint I/O error). Status-returning callers
// (put_checked / remove_checked / multiput) never throw.
struct StoreReadOnly : std::runtime_error {
  explicit StoreReadOnly(const io::IoErrorDetail& d)
      : std::runtime_error("store is read-only after " +
                           std::string(d.syscall) + "(" + d.path + ")+" +
                           std::to_string(d.offset) + ": " +
                           std::strerror(d.err)),
        detail(d) {}
  io::IoErrorDetail detail;
};

class Store {
 public:
  struct Options {
    // Directory for per-session logs; empty disables persistence.
    std::string log_dir;
    // Number of logging threads; each drains the sessions assigned to it
    // ("Different logs may be on different disks or SSDs for higher total
    // log throughput").
    unsigned log_partitions = 4;
    // Per-shard buffering and group-commit cadence.
    Logger::Options logger;
    // Values this size or larger are lz-compressed transparently in both
    // the log and checkpoint parts (0 disables compression).
    size_t log_compress_threshold = 128;
    // Dedicated background maintenance & epoch-advancement thread (§4.6.1,
    // §4.6.5): empty-layer GC and epoch advances leave the foreground write
    // path entirely. When disabled, both piggyback on write traffic as
    // before.
    bool maintenance_thread = true;
    uint64_t maintenance_interval_ms = 1;
    // Hot-key record cache in front of the tree (cache/record_cache.h):
    // entry count, rounded up to a power of two; 0 disables the cache.
    size_t cache_capacity = 1 << 16;
    // Count-min-sketch admission threshold; <= 1 admits every miss.
    uint32_t cache_admit_threshold = 4;
  };

  // A per-worker-thread handle: thread context + (lazily, on first logged
  // write) an exclusively-owned log shard — the paper's "each query thread
  // maintains its own log file and in-memory log buffer". The shard returns
  // to the store's pool when the session ends.
  class Session {
   public:
    Session(Store& store, unsigned worker_id) : store_(store), worker_id_(worker_id) {}

    ~Session() {
      if (log_ != nullptr) {
        log_->release_producer();  // logging thread drains, closes, parks it
      }
    }

    ThreadContext& ti() { return ti_; }
    unsigned worker_id() const { return worker_id_; }
    Store& store() { return store_; }

   private:
    friend class Store;
    Store& store_;
    unsigned worker_id_;
    LogShard* log_ = nullptr;
    ThreadContext ti_;
    // Reusable multiget scratch: the event-loop server batches gets through
    // this session every wakeup, so the request array must not reallocate in
    // steady state.
    std::vector<Tree::GetRequest> mg_reqs_;
    std::vector<const Row*> mg_rows_;
    // Reusable multiput scratch (same discipline, write side).
    std::vector<Tree::PutRequest> mp_reqs_;
    std::vector<uint64_t> mp_vers_;
    std::vector<LogShard::BatchOp> mp_log_;
    // Resident getrange cursor, reset per call so its buffers stay warm and
    // a short scan allocates nothing; busy while a getrange drives it.
    ScanCursor<Tree::Config> scan_cur_;
    bool scan_busy_ = false;
  };

  Store() : Store(Options()) {}

  explicit Store(Options opt) : opt_(std::move(opt)) {
    if (!opt_.log_dir.empty()) {
      ::mkdir(opt_.log_dir.c_str(), 0755);
      unsigned nwriters = std::max(1u, opt_.log_partitions);
      for (unsigned i = 0; i < nwriters; ++i) {
        log_writers_.push_back(std::make_unique<LogWriter>(
            LogWriter::Options{opt_.logger.flush_interval_ms, opt_.logger.fsync_on_flush},
            &log_pool_));
        // First sticky I/O error anywhere in the logging stack trips the
        // whole store into read-only mode; set before adoption so even a
        // construction-time tail-repair failure trips.
        log_writers_.back()->set_on_first_error(
            [this](const io::IoErrorDetail& d) { note_io_error(d); });
      }
      adopt_existing_logs();
      for (auto& w : log_writers_) {
        w->start();
      }
    }
    ThreadContext setup_ti;
    tree_ = std::make_unique<Tree>(setup_ti);
    if (opt_.cache_capacity > 0) {
      cache_ = std::make_unique<RecordCache<Tree::Config>>(
          RecordCache<Tree::Config>::Config{opt_.cache_capacity,
                                            opt_.cache_admit_threshold});
      tree_->set_record_cache(cache_.get());
    }
    if (opt_.maintenance_thread) {
      start_maintenance();
    }
  }

  ~Store() {
    stop_maintenance();
    // Final group commit: each logging thread drains every shard, stamps
    // kClose completion markers, and fdatasyncs before exiting.
    for (auto& w : log_writers_) {
      w->stop();
    }
    // Quiescent teardown: free every live row, then the tree itself.
    tree_->for_each_value([](uint64_t lv) { Row::deallocate(Row::from_slot(lv)); });
  }

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  static std::string log_path(const std::string& dir, unsigned i) {
    return dir + "/log-" + std::to_string(i) + ".bin";
  }

  // ------------------------------------------------------------------
  // getc(k): fetch selected columns (empty `cols` = all columns). Returns
  // false if the key is absent.
  bool get(std::string_view key, const std::vector<unsigned>& cols,
           std::vector<std::string>* out, Session& s) const {
    EpochGuard guard(s.ti_.slot());  // keeps the row alive while we copy
    uint64_t lv;
    if (!tree_->get(key, &lv, s.ti_)) {
      return false;
    }
    out->clear();
    extract_columns(Row::from_slot(lv), cols, out);
    return true;
  }

  // Batched getc (§4.8): one software-pipelined tree multiget for the whole
  // key batch, then column extraction while a single EpochGuard keeps every
  // fetched row alive. `cols` selects the columns returned for each key
  // (empty = all columns). (*out)[i] corresponds to keys[i]; missing keys get
  // found == false. Returns the number of keys found.
  struct MultigetResult {
    bool found = false;
    std::vector<std::string> columns;
  };

  size_t multiget(std::span<const std::string_view> keys, const std::vector<unsigned>& cols,
                  std::vector<MultigetResult>* out, Session& s) const {
    out->assign(keys.size(), MultigetResult{});
    if (keys.empty()) {
      return 0;
    }
    EpochGuard guard(s.ti_.slot());  // rows stay alive through extraction
    s.mg_rows_.resize(keys.size());
    size_t nfound = multiget_rows(keys, s.mg_rows_.data(), s);
    for (size_t i = 0; i < keys.size(); ++i) {
      if (s.mg_rows_[i] == nullptr) {
        continue;
      }
      MultigetResult& res = (*out)[i];
      res.found = true;
      extract_columns(s.mg_rows_[i], cols, &res.columns);
    }
    return nfound;
  }

  // Raw batched-read seam under the column layer: one software-pipelined
  // tree multiget, results as row pointers (nullptr = absent). rows[] must
  // hold keys.size() slots. The CALLER must hold an EpochGuard on s.ti() for
  // the whole time it dereferences the returned rows — this is what lets the
  // network server encode each op's own column selection straight out of the
  // shared batch without copying every row into MultigetResults first.
  // Allocation-free in steady state (session-owned request scratch).
  size_t multiget_rows(std::span<const std::string_view> keys, const Row** rows,
                       Session& s) const {
    std::vector<Tree::GetRequest>& reqs = s.mg_reqs_;
    reqs.resize(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      reqs[i] = Tree::GetRequest{keys[i]};
    }
    size_t nfound = tree_->multiget(std::span<Tree::GetRequest>(reqs), s.ti_);
    for (size_t i = 0; i < keys.size(); ++i) {
      rows[i] = reqs[i].found ? Row::from_slot(reqs[i].value) : nullptr;
    }
    return nfound;
  }

  // putc(k, v): atomic multi-column put (§4.7). Status-returning entry
  // point: a store that has tripped into read-only mode rejects the write
  // without touching the tree (and without throwing — the event-loop server
  // answers kReadOnly on the wire instead of dying).
  enum class PutResult : uint8_t { kInserted, kUpdated, kReadOnly };

  PutResult put_checked(std::string_view key,
                        const std::vector<ColumnUpdate>& updates, Session& s) {
    if (MT_UNLIKELY(read_only())) {
      count_rejected_write(s, 1);
      return PutResult::kReadOnly;
    }
    uint64_t version = 0;
    uint64_t old_lv = 0;
    bool inserted = tree_->insert_transform(
        key,
        [&](bool found, uint64_t old) {
          // Version assignment happens under the border lock, so versions of
          // one value are strictly increasing in application order (§5).
          version = next_version();
          const Row* old_row = found ? Row::from_slot(old) : nullptr;
          return Row::to_slot(Row::update(s.ti_, old_row, updates, version));
        },
        &old_lv, s.ti_);
    if (!inserted) {
      s.ti_.retire(Row::from_slot(old_lv), Row::deallocate);
    }
    if (!log_writers_.empty()) {
      // Wait-free fast path: encode in place into the session's own
      // double-buffered arena — no mutex, no allocation (§5).
      ensure_log(s)->append_put(key, updates, version);
    }
    maybe_maintain(s);
    return inserted ? PutResult::kInserted : PutResult::kUpdated;
  }

  // Legacy bool API: returns true if the key was newly inserted; throws
  // StoreReadOnly once the store has tripped (loud fail-fast for
  // in-process callers that never check statuses).
  bool put(std::string_view key, const std::vector<ColumnUpdate>& updates, Session& s) {
    PutResult r = put_checked(key, updates, s);
    if (MT_UNLIKELY(r == PutResult::kReadOnly)) {
      throw StoreReadOnly(log_error_detail());
    }
    return r == PutResult::kInserted;
  }

  enum class RemoveResult : uint8_t { kRemoved, kAbsent, kReadOnly };

  RemoveResult remove_checked(std::string_view key, Session& s) {
    if (MT_UNLIKELY(read_only())) {
      count_rejected_write(s, 1);
      return RemoveResult::kReadOnly;
    }
    uint64_t version = 0;
    Row* old_row = nullptr;
    bool removed = tree_->remove_with(
        key,
        [&](uint64_t old) {
          version = next_version();
          old_row = Row::from_slot(old);
        },
        s.ti_);
    if (removed) {
      s.ti_.retire(old_row, Row::deallocate);
      if (!log_writers_.empty()) {
        ensure_log(s)->append_remove(key, version);
      }
    }
    maybe_maintain(s);
    return removed ? RemoveResult::kRemoved : RemoveResult::kAbsent;
  }

  bool remove(std::string_view key, Session& s) {
    RemoveResult r = remove_checked(key, s);
    if (MT_UNLIKELY(r == RemoveResult::kReadOnly)) {
      throw StoreReadOnly(log_error_detail());
    }
    return r == RemoveResult::kRemoved;
  }

  // Batched putc/removec — the write-side twin of multiget (§4.8). One
  // EpochGuard spans the tree batch, versions are assigned under each
  // border's lock (so per-key version order matches application order, §5),
  // and everything the batch applies goes to the log through one grouped
  // arena reservation (LogShard::append_batch) — the append path stays
  // wait-free and allocation-free, exactly like put(). Duplicate keys follow
  // Tree::multiput's last-write-wins contract: only the last op per key is
  // applied and logged (exactly one record per surviving write), and each
  // op's inserted/found results read as if the batch had run sequentially.
  // Record-cache coherence needs no extra work here: hits validate against
  // border versions, so in-place row swaps are picked up by slot re-reads
  // and the remove/layer paths' vinsert bumps kill stale entries — the same
  // invariants single puts rely on.
  struct PutOp {
    std::string_view key;
    std::span<const ColumnUpdate> updates;  // ignored when remove == true
    bool remove = false;
    // Out: as-if-sequential results (see above).
    bool inserted = false;
    bool found = false;
    // Out: refused because the store is read-only (never throws — the flag
    // travels back through the server's steering paths instead).
    bool rejected = false;
  };

  size_t multiput(std::span<PutOp> ops, Session& s) {
    if (ops.empty()) {
      return 0;
    }
    if (MT_UNLIKELY(read_only())) {
      for (PutOp& op : ops) {
        op.inserted = false;
        op.found = false;
        op.rejected = true;
      }
      count_rejected_write(s, ops.size());
      return 0;
    }
    EpochGuard guard(s.ti_.slot());  // spans the tree batch and the log append
    std::vector<Tree::PutRequest>& reqs = s.mp_reqs_;
    std::vector<uint64_t>& vers = s.mp_vers_;
    reqs.resize(ops.size());
    vers.assign(ops.size(), 0);
    for (size_t i = 0; i < ops.size(); ++i) {
      reqs[i] = Tree::PutRequest{ops[i].key};
      reqs[i].remove = ops[i].remove;
      ops[i].rejected = false;
    }
    size_t applied = tree_->multiput_with(
        std::span<Tree::PutRequest>(reqs),
        [&](size_t i, bool found, uint64_t old) -> uint64_t {
          // Runs under the border lock, like put()'s transform: versions of
          // one value stay strictly increasing in application order (§5).
          uint64_t version = next_version();
          vers[i] = version;
          const Row* old_row = found ? Row::from_slot(old) : nullptr;
          Row* row = Row::update(s.ti_, old_row, ops[i].updates, version);
          if (old_row != nullptr) {
            s.ti_.retire(const_cast<Row*>(old_row), Row::deallocate);
          }
          return Row::to_slot(row);
        },
        [&](size_t i, uint64_t old) {
          vers[i] = next_version();
          s.ti_.retire(Row::from_slot(old), Row::deallocate);
        },
        s.ti_);
    for (size_t i = 0; i < ops.size(); ++i) {
      ops[i].inserted = reqs[i].inserted;
      ops[i].found = reqs[i].found;
    }
    if (!log_writers_.empty()) {
      // vers[i] != 0 <=> op i survived dedupe and was applied. A remove of
      // an absent key assigns no version and logs nothing, like remove().
      std::vector<LogShard::BatchOp>& lops = s.mp_log_;
      lops.clear();
      // Distinguishes an empty-column put from a remove (null updates):
      // an empty span's data() may be null.
      static constexpr ColumnUpdate kNoCols[1] = {{0u, {}}};
      for (size_t i = 0; i < ops.size(); ++i) {
        if (vers[i] == 0) {
          continue;
        }
        const PutOp& o = ops[i];
        const ColumnUpdate* up =
            o.remove ? nullptr : (o.updates.empty() ? kNoCols : o.updates.data());
        lops.push_back(LogShard::BatchOp{o.key, up, o.remove ? 0 : o.updates.size(), vers[i]});
      }
      if (!lops.empty()) {
        ensure_log(s)->append_batch(std::span<const LogShard::BatchOp>(lops));
      }
    }
    maybe_maintain(s);
    return applied;
  }

  // getrangec(k, n): up to n pairs starting at or after `key`, one selected
  // column each (or the whole row when col == kAllColumns). Not atomic with
  // respect to concurrent puts (§3).
  //
  // Streams column extraction straight from ScanCursor batches: border-node
  // snapshots are chain-walked allocation-free, and the epoch guard is
  // re-acquired every kGetrangeChunk pairs (cursor detach/re-attach) so an
  // arbitrarily long range read never stalls memory reclamation — the same
  // bounded-epoch discipline the checkpointer uses. The cursor is the
  // session's resident one (the idiom of Tree::scan_drive), so repeated
  // scans reuse its warm buffers instead of building a cursor per call.
  static constexpr unsigned kAllColumns = ~0u;
  static constexpr size_t kGetrangeChunk = 1024;

  template <typename F>
  size_t getrange(std::string_view key, size_t n, unsigned col, F&& emit, Session& s) const {
    // A getrange nested in another's emit callback on the same session gets
    // a cursor of its own instead of re-aiming the resident one under it.
    ScanCursor<Tree::Config> nested;
    ScanCursor<Tree::Config>& cur = s.scan_busy_ ? nested : s.scan_cur_;
    tree_->reset_scan_cursor(cur, key);
    struct Lease {
      bool* busy;
      bool was_busy;
      ~Lease() { *busy = was_busy; }
    } lease{&s.scan_busy_, s.scan_busy_};
    s.scan_busy_ = true;
    size_t emitted = 0;
    bool stop = false;
    while (!stop && emitted < n) {
      EpochGuard guard(s.ti_.slot());
      size_t in_guard = 0;
      while (!stop && emitted < n && in_guard < kGetrangeChunk) {
        size_t cnt = cur.next_batch(&s.ti_.counters(), n - emitted);
        if (cnt == 0) {
          stop = true;
          break;
        }
        cur.prefetch_pending();
        in_guard += cnt;
        for (size_t i = 0; i < cnt && emitted < n; ++i) {
          const Row* row = Row::from_slot(cur.value(i));
          bool keep_going =
              emit(cur.key(i), col == kAllColumns ? std::string_view() : row->col(col), row);
          ++emitted;
          if (!keep_going) {
            stop = true;
            break;
          }
        }
      }
      cur.detach();  // the guard is about to drop; forget node pointers
    }
    return emitted;
  }

  // ------------------------------------------------------------------
  // Checkpoint (§5): walks the tree in nworkers parallel key ranges while
  // normal operations continue. The MANIFEST is written only after every
  // part completes.
  bool checkpoint(const std::string& dir, unsigned nworkers) {
    ::mkdir(dir.c_str(), 0755);
    CheckpointManifest m;
    m.start_ts_us = wall_us();
    m.version_floor = version_counter_.load(std::memory_order_acquire);
    m.parts = nworkers;
    std::atomic<bool> ok{true};
    // Write-side part failures (ENOSPC, EIO, short disk) trip the store
    // read-only, like a log failure would; a part that cannot even be
    // opened is a configuration error, not storage degradation.
    std::mutex fail_mu;
    io::IoErrorDetail fail_detail;
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < nworkers; ++w) {
      workers.emplace_back([&, w] {
        ThreadContext ti;
        CheckpointPartWriter out(checkpoint_part_path(dir, w),
                                 opt_.log_compress_threshold);
        if (!out.ok()) {
          ok = false;
          // A part header that failed to hit the disk (short write, EIO,
          // ENOSPC in the writer's constructor) is storage degradation just
          // like a failure at finish(); only open() stays a config error.
          if (std::strcmp(out.error_detail().syscall, "open") != 0) {
            std::lock_guard<std::mutex> lock(fail_mu);
            if (fail_detail.err == 0) {
              fail_detail = out.error_detail();
            }
          }
          return;
        }
        // Range partition by leading byte: worker w covers
        // [w*256/n, (w+1)*256/n) as first-byte values; worker 0 also covers
        // the empty key. Scans run in bounded chunks so the checkpointer
        // never pins an epoch for the whole walk — concurrent writers keep
        // reclaiming memory (§5: checkpoints run in parallel with request
        // processing).
        unsigned lo = w * 256 / nworkers, hi = (w + 1) * 256 / nworkers;
        std::string cursor =
            w == 0 ? std::string() : std::string(1, static_cast<char>(lo));
        std::vector<std::string_view> cols;
        constexpr size_t kChunk = 4096;
        bool done = false;
        while (!done) {
          size_t emitted = 0;
          std::string last_key;
          {
            EpochGuard guard(ti.slot());
            emitted = tree_->scan(
                cursor, kChunk,
                [&](std::string_view k, uint64_t lv) {
                  if (hi < 256 && !k.empty() &&
                      static_cast<unsigned char>(k[0]) >= hi) {
                    done = true;
                    return false;  // next worker's range
                  }
                  const Row* row = Row::from_slot(lv);
                  cols.clear();
                  for (unsigned i = 0; i < row->ncols(); ++i) {
                    cols.push_back(row->col(i));
                  }
                  out.add(k, row->version(), cols);
                  last_key.assign(k);
                  return true;
                },
                ti);
          }
          if (emitted < kChunk) {
            done = true;
          }
          if (!done) {
            // Resume just past the last emitted key.
            cursor = last_key;
            cursor.push_back('\0');
          }
          ti.reclaim();
        }
        out.finish();
        if (!out.ok()) {
          ok = false;
          if (std::strcmp(out.error_detail().syscall, "open") != 0) {
            std::lock_guard<std::mutex> lock(fail_mu);
            if (fail_detail.err == 0) {
              fail_detail = out.error_detail();
            }
          }
        }
      });
    }
    for (auto& t : workers) {
      t.join();
    }
    if (!ok) {
      if (fail_detail.err != 0) {
        note_io_error(fail_detail);
      }
      return false;
    }
    return write_manifest(dir, m);
  }

  struct RecoveryResult {
    bool used_checkpoint = false;
    uint64_t checkpoint_records = 0;
    uint64_t log_entries_applied = 0;
    uint64_t cutoff_us = 0;
  };

  // Full §5 recovery into this (empty) store: load the checkpoint if one
  // completed, then replay logs from the checkpoint's start time up to the
  // cutoff t = min over logs of last timestamp.
  RecoveryResult recover(const std::string& checkpoint_dir, const std::string& log_dir,
                         unsigned nthreads) {
    RecoveryResult res;
    uint64_t since = 0;
    CheckpointManifest m =
        checkpoint_dir.empty() ? CheckpointManifest{} : read_manifest(checkpoint_dir);
    if (m.valid) {
      res.used_checkpoint = true;
      since = m.start_ts_us;
      std::atomic<uint64_t> loaded{0};
      std::vector<std::thread> workers;
      for (unsigned w = 0; w < m.parts; ++w) {
        workers.emplace_back([&, w] {
          Session s(*this, w);
          auto records = read_checkpoint_part(checkpoint_part_path(checkpoint_dir, w));
          for (auto& r : records) {
            apply_row(r.key, r.cols, r.row_version, s);
          }
          loaded.fetch_add(records.size(), std::memory_order_relaxed);
        });
      }
      for (auto& t : workers) {
        t.join();
      }
      res.checkpoint_records = loaded.load();
    }

    std::vector<std::string> paths = list_log_files(log_dir);
    RecoverySet rs = load_logs(paths);
    res.cutoff_us = rs.cutoff_us;
    // The live logs' information is consumed right here: trim each to its
    // crash-consistent prefix and mark it complete, so it neither pins
    // future cutoffs nor resurrects its dropped tail on a later recovery.
    for (size_t i = 0; i < paths.size(); ++i) {
      seal_recovered_log(paths[i], rs.logs[i], rs.cutoff_us);
    }
    std::vector<LogEntry> plan = replay_plan(std::move(rs), since);

    // Parallel replay partitioned by key hash; within a partition entries
    // stay version-sorted, so each key's updates apply in version order.
    std::vector<std::vector<const LogEntry*>> parts(nthreads);
    for (const auto& e : plan) {
      parts[std::hash<std::string>{}(e.key) % nthreads].push_back(&e);
    }
    std::atomic<uint64_t> applied{0};
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < nthreads; ++w) {
      workers.emplace_back([&, w] {
        Session s(*this, w);
        for (const LogEntry* e : parts[w]) {
          if (e->type == LogType::kPut) {
            std::vector<ColumnUpdate> updates;
            updates.reserve(e->columns.size());
            for (const auto& [c, d] : e->columns) {
              updates.push_back(ColumnUpdate{c, d});
            }
            apply_update(e->key, updates, e->version, s);
          } else {
            apply_remove(e->key, e->version, s);
          }
          applied.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& t : workers) {
      t.join();
    }
    res.log_entries_applied = applied.load();
    bump_version_floor(std::max(m.version_floor, max_version_seen_.load()));
    return res;
  }

  // ------------------------------------------------------------------
  void run_maintenance(Session& s) { tree_->run_maintenance(s.ti_); }

  // Force everything appended so far to storage: each logging thread runs a
  // full group-commit round (drain + heartbeat marker + fdatasync) begun
  // after this call.
  void sync_logs() {
    for (auto& w : log_writers_) {
      w->sync();
    }
  }

  // Reclaim log space made redundant by a completed checkpoint (§5). Call
  // only after checkpoint() returned true; recovery then needs that
  // checkpoint plus the post-truncation logs. Truncation runs on the
  // logging threads at a round boundary, so it cannot shear an in-flight
  // flush.
  void truncate_logs() {
    for (auto& w : log_writers_) {
      w->truncate_all();
    }
  }

  // Aggregate logging-thread statistics (and the sticky disk error, if any).
  struct LogTotals {
    uint64_t flush_bytes = 0;
    uint64_t flushes = 0;
    uint64_t syncs = 0;
    int error = 0;
  };

  LogTotals log_totals() const {
    LogTotals t;
    for (const auto& w : log_writers_) {
      t.flush_bytes += w->bytes_written();
      t.flushes += w->flushes();
      t.syncs += w->syncs();
      if (t.error == 0) {
        t.error = w->error();
      }
    }
    return t;
  }

  // First sticky log-write errno (0 while healthy). A failed shard
  // fail-stops — its file stays a clean record prefix — but the store keeps
  // serving reads; callers poll this to surface the durability loss.
  int log_error() const { return log_totals().error; }

  // Context of the first failing persistence syscall: (syscall, path,
  // offset, errno). Default-constructed while healthy.
  io::IoErrorDetail log_error_detail() const {
    {
      std::lock_guard<std::mutex> lock(err_detail_mu_);
      if (err_detail_.err != 0) {
        return err_detail_;
      }
    }
    for (const auto& w : log_writers_) {
      io::IoErrorDetail d = w->error_detail();
      if (d.err != 0) {
        return d;
      }
    }
    return io::IoErrorDetail{};
  }

  // True once a sticky log/checkpoint I/O error has flipped the store into
  // read-only degraded mode: gets/scans keep serving, writes fail fast
  // (kReadOnly on the wire, StoreReadOnly from the legacy bool APIs).
  // In-flight writes at trip time complete against the tree but their
  // durability is already gone — the failed shard discards its drains.
  bool read_only() const { return read_only_.load(std::memory_order_acquire); }

  uint64_t read_only_trips() const {
    return ro_trips_.load(std::memory_order_relaxed);
  }
  uint64_t writes_rejected_read_only() const {
    return ro_rejects_.load(std::memory_order_relaxed);
  }

  TreeStats stats() const { return tree_->collect_stats(); }
  Tree& tree() { return *tree_; }
  uint64_t current_version() const { return version_counter_.load(std::memory_order_relaxed); }

 private:
  // Shared getc column selection: empty `cols` = every column of the row.
  // Callers must hold an epoch guard keeping `row` alive.
  static void extract_columns(const Row* row, const std::vector<unsigned>& cols,
                              std::vector<std::string>* out) {
    if (cols.empty()) {
      for (unsigned c = 0; c < row->ncols(); ++c) {
        out->emplace_back(row->col(c));
      }
    } else {
      for (unsigned c : cols) {
        out->emplace_back(row->col(c));
      }
    }
  }

  uint64_t next_version() {
    return version_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  // The read-only trip: first sticky I/O error wins, everything after is a
  // no-op. Runs on whichever thread saw the error first (a logging thread
  // via the LogWriter callback, or a checkpoint worker's join).
  void note_io_error(const io::IoErrorDetail& d) {
    bool expected = false;
    if (!read_only_.compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel)) {
      return;
    }
    {
      std::lock_guard<std::mutex> lock(err_detail_mu_);
      err_detail_ = d;
    }
    ro_trips_.fetch_add(1, std::memory_order_relaxed);
    trip_counters_.inc(Counter::kStoreReadOnlyTrips);
    std::fprintf(stderr,
                 "masstree: store degraded to read-only after %s(%s)+%llu "
                 "failed: %s\n",
                 d.syscall, d.path.c_str(),
                 static_cast<unsigned long long>(d.offset),
                 std::strerror(d.err));
  }

  void count_rejected_write(Session& s, size_t n) {
    s.ti_.counters().inc(Counter::kWritesRejectedReadOnly, n);
    ro_rejects_.fetch_add(n, std::memory_order_relaxed);
  }

  void bump_version_floor(uint64_t floor) {
    uint64_t cur = version_counter_.load(std::memory_order_relaxed);
    while (cur < floor &&
           !version_counter_.compare_exchange_weak(cur, floor, std::memory_order_relaxed)) {
    }
  }

  void maybe_maintain(Session& s) {
    if (opt_.maintenance_thread) {
      return;  // the background thread owns the tick; writes pay nothing
    }
    // Legacy piggyback: deferred empty-layer cleanups ride on write traffic
    // (§4.6.5) when no maintenance thread is running.
    if ((maintenance_tick_.fetch_add(1, std::memory_order_relaxed) & 0xFFF) == 0) {
      tree_->run_maintenance(s.ti_);
    }
  }

  // ---- per-session log shards --------------------------------------
  LogShard* ensure_log(Session& s) {
    if (MT_UNLIKELY(s.log_ == nullptr)) {
      s.log_ = claim_shard(s);
    }
    return s.log_;
  }

  // Slow path, once per session: reuse a parked shard (file + arenas) when
  // one is free, otherwise create the next log-<n>.bin. Reuse bounds both
  // file count and allocation under session churn — a reused shard's
  // appends simply continue after its mid-file kClose marker.
  LogShard* claim_shard(Session& s) {
    unsigned part = s.worker_id_ % static_cast<unsigned>(log_writers_.size());
    LogShard* shard = log_pool_.try_claim(part);
    if (shard != nullptr) {
      shard->reopen(&s.ti_.counters());
      return shard;
    }
    std::lock_guard<std::mutex> lock(log_mu_);
    std::string path = log_path(opt_.log_dir, next_log_file_++);
    log_shards_.push_back(std::make_unique<LogShard>(path, opt_.logger.buffer_bytes,
                                                     part, &s.ti_.counters(),
                                                     /*repair_existing_tail=*/false,
                                                     opt_.log_compress_threshold));
    LogShard* fresh = log_shards_.back().get();
    log_writers_[part]->add_shard(fresh);
    return fresh;
  }

  // Startup: open every existing log file as a parked shard (chopping any
  // torn tail a crash left, so O_APPEND cannot bury fresh records behind
  // bytes recovery will never reach) and park it for reuse. Files keep
  // their on-disk live/complete state until recover() consumes them.
  void adopt_existing_logs() {
    for (const std::string& path : list_log_files(opt_.log_dir)) {
      std::string name = path.substr(path.find_last_of('/') + 1);
      unsigned idx = static_cast<unsigned>(std::strtoul(name.c_str() + 4, nullptr, 10));
      next_log_file_ = std::max(next_log_file_, idx + 1);
      unsigned part = idx % static_cast<unsigned>(log_writers_.size());
      log_shards_.push_back(std::make_unique<LogShard>(path, opt_.logger.buffer_bytes,
                                                       part, nullptr,
                                                       /*repair_existing_tail=*/true,
                                                       opt_.log_compress_threshold));
      LogShard* shard = log_shards_.back().get();
      shard->park_adopted();
      log_writers_[part]->add_shard(shard);
      // A shard whose adoption already failed (tail-repair ftruncate error)
      // never enters the reuse pool: sessions would log into a file that
      // silently discards everything. add_shard surfaced the errno.
      if (shard->error() == 0) {
        log_pool_.park(shard);
      }
    }
  }

  // ---- background maintenance & epoch advancement ------------------
  void start_maintenance() {
    maint_thread_ = std::thread([this] {
      ThreadContext ti;
      ThreadContext::BackgroundAdvancer advancer(ti);
      std::unique_lock<std::mutex> lock(maint_mu_);
      while (!maint_stop_) {
        maint_cv_.wait_for(lock, std::chrono::milliseconds(opt_.maintenance_interval_ms),
                           [this] { return maint_stop_; });
        if (maint_stop_) {
          break;
        }
        lock.unlock();
        tree_->run_maintenance(ti);  // deferred empty-layer GC (§4.6.5)
        ti.reclaim();                // advance the epoch, drain own limbo
        lock.lock();
      }
    });
  }

  void stop_maintenance() {
    if (!maint_thread_.joinable()) {
      return;
    }
    {
      std::lock_guard<std::mutex> lock(maint_mu_);
      maint_stop_ = true;
    }
    maint_cv_.notify_all();
    maint_thread_.join();
  }

  // Recovery appliers: last-writer-wins by version (rows carry versions, so
  // checkpoint state and log replay compose regardless of arrival order).
  void apply_row(std::string_view key, const std::vector<std::string>& cols, uint64_t version,
                 Session& s) {
    std::vector<ColumnUpdate> updates;
    updates.reserve(cols.size());
    for (unsigned i = 0; i < cols.size(); ++i) {
      updates.push_back(ColumnUpdate{i, cols[i]});
    }
    apply_update(key, updates, version, s);
  }

  void apply_update(std::string_view key, const std::vector<ColumnUpdate>& updates,
                    uint64_t version, Session& s) {
    uint64_t old_lv = 0;
    bool replaced_newer = false;
    bool inserted = tree_->insert_transform(
        key,
        [&](bool found, uint64_t old) -> uint64_t {
          const Row* old_row = found ? Row::from_slot(old) : nullptr;
          if (old_row != nullptr && old_row->version() >= version) {
            replaced_newer = true;
            return old;  // keep the newer row
          }
          return Row::to_slot(Row::update(s.ti_, old_row, updates, version));
        },
        &old_lv, s.ti_);
    if (!inserted && !replaced_newer) {
      s.ti_.retire(Row::from_slot(old_lv), Row::deallocate);
    }
    track_version(version);
  }

  void apply_remove(std::string_view key, uint64_t version, Session& s) {
    Row* old_row = nullptr;
    bool removed = tree_->remove_with(
        key, [&](uint64_t old) { old_row = Row::from_slot(old); }, s.ti_);
    if (removed) {
      s.ti_.retire(old_row, Row::deallocate);
    }
    track_version(version);
  }

  void track_version(uint64_t v) {
    uint64_t cur = max_version_seen_.load(std::memory_order_relaxed);
    while (cur < v &&
           !max_version_seen_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  Options opt_;
  std::vector<std::unique_ptr<LogWriter>> log_writers_;
  std::vector<std::unique_ptr<LogShard>> log_shards_;
  LogShardPool log_pool_;
  std::mutex log_mu_;          // guards log_shards_ growth + file naming
  unsigned next_log_file_ = 0;
  // Declared before tree_ so the cache outlives the tree's pointer to it.
  std::unique_ptr<RecordCache<Tree::Config>> cache_;
  std::unique_ptr<Tree> tree_;
  std::thread maint_thread_;
  std::mutex maint_mu_;
  std::condition_variable maint_cv_;
  bool maint_stop_ = false;
  std::atomic<uint64_t> version_counter_{0};
  std::atomic<uint64_t> max_version_seen_{0};
  std::atomic<uint64_t> maintenance_tick_{0};
  // Read-only degraded mode (sticky; see note_io_error).
  std::atomic<bool> read_only_{false};
  std::atomic<uint64_t> ro_trips_{0};
  std::atomic<uint64_t> ro_rejects_{0};
  mutable std::mutex err_detail_mu_;
  io::IoErrorDetail err_detail_;
  ThreadCounters trip_counters_;  // written once, under the trip CAS
};

}  // namespace masstree

#endif  // MASSTREE_KVSTORE_STORE_H_
