// Figure 11 — skew vs hard partitioning (§6.6): "Throughput of Masstree and
// hard-partitioned Masstree with various skewness (16-core get workload)."
//
// Skew model (Hua et al.): with P partitions and skew delta, one partition
// receives (delta+1)x the request share of each other partition; at delta=9
// with 16 partitions the hot one serves 40% of requests.
//
// Paper shape: hard-partitioned wins at delta=0 (~1.5x: all-local DRAM, no
// interlocked instructions) but collapses as delta grows (the hot core
// saturates; other cores idle to preserve the arrival mix); the shared
// Masstree line is flat, 3.5x better at delta=9.
//
// Partition count here equals the worker thread count (the paper's 16
// partitions assume 16 cores).

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "baselines/partitioned.h"
#include "bench/common.h"
#include "core/tree.h"
#include "util/rand.h"
#include "workload/keys.h"

int main() {
  using namespace masstree;
  using namespace masstree::bench;
  Env e = env(1000000);
  unsigned P = e.threads < 2 ? 2 : e.threads;
  uint64_t requests_total = env_u64("MT_BENCH_REQS", 4000000);
  print_header("Figure 11: skew vs hard-partitioned (get workload)", e);
  std::printf("partitions=%u requests=%llu\n", P,
              static_cast<unsigned long long>(requests_total));
  std::printf("%-8s %-22s %-26s %s\n", "delta", "Masstree Mops", "hard-partitioned Mops",
              "shared/partitioned");

  // Shared Masstree, loaded once.
  ThreadContext setup;
  Tree shared(setup);
  {
    uint64_t old;
    for (uint64_t i = 0; i < e.keys; ++i) {
      shared.insert(decimal_key(i), i, &old, setup);
    }
  }
  // Hard-partitioned store, loaded once (router hashes keys to partitions).
  PartitionedMasstree parts(P, setup);
  std::vector<std::vector<std::string>> part_keys(P);
  for (uint64_t i = 0; i < e.keys; ++i) {
    std::string k = decimal_key(i);
    unsigned p = parts.partition_of(k);
    parts.partition(p).insert(k, i, nullptr, setup);
    part_keys[p].push_back(std::move(k));
  }

  for (double delta : {0.0, 1.0, 2.0, 3.0, 5.0, 7.0, 9.0}) {
    double hot_share = (delta + 1.0) / (delta + P);
    // ---- shared Masstree: every worker serves the same skewed stream ----
    // (partition popularity doesn't matter: any worker can serve any key).
    double shared_secs = run_until_all_done(e.threads, [&](unsigned t) {
      thread_local ThreadContext ti;
      Rng rng(7 + t);
      SkewGen skew = SkewGen::hua(P, delta, 13 + t);
      uint64_t quota = requests_total / e.threads, v;
      for (uint64_t i = 0; i < quota; ++i) {
        unsigned p = skew.next_partition();
        const auto& keys = part_keys[p];
        shared.get(keys[rng.next_range(keys.size())], &v, ti);
      }
    });
    double shared_mops = static_cast<double>(requests_total) / shared_secs / 1e6;

    // ---- hard-partitioned: worker t owns partition t and must serve its
    // whole share; the run ends when the slowest (hottest) finishes (§6.6:
    // "other partitions' clients must wait for the slow partition"). ----
    double part_secs = run_until_all_done(P, [&](unsigned t) {
      thread_local ThreadContext ti;
      Rng rng(31 + t);
      double share = t == 0 ? hot_share : (1.0 - hot_share) / (P - 1);
      uint64_t quota = static_cast<uint64_t>(share * static_cast<double>(requests_total));
      const auto& keys = part_keys[t];
      uint64_t v;
      for (uint64_t i = 0; i < quota; ++i) {
        parts.partition(t).get(keys[rng.next_range(keys.size())], &v, ti);
      }
    });
    double part_mops = static_cast<double>(requests_total) / part_secs / 1e6;

    std::printf("%-8.0f %-22.3f %-26.3f %.2fx\n", delta, shared_mops, part_mops,
                shared_mops / part_mops);
  }
  std::printf("\npaper: partitioned ~1.5x better at delta=0; Masstree flat and 3.5x better "
              "at delta=9\n");

  // ---- Zipf θ sweep: the record-cache scoreboard ---------------------
  // Three lines over YCSB-style per-key Zipfian skew (θ=0 is the uniform
  // baseline): the plain shared tree, the shared tree fronted by the record
  // cache, and the cache with partition-affinity routing modeled in-process —
  // worker t serves only the keys hashing to it (key_hash64 % threads), so a
  // hot key's cache entry stays on one core. The network server does not
  // route by key (every worker serves the shared tree); this line is a model
  // only.
  std::vector<std::string> all_keys(e.keys);
  std::vector<uint8_t> owner(e.keys);
  for (uint64_t i = 0; i < e.keys; ++i) {
    all_keys[i] = decimal_key(i);
    owner[i] = static_cast<uint8_t>(key_hash64(all_keys[i]) % e.threads);
  }
  // Capacity default: large enough for the hot set at θ≈1, small enough that
  // the probe table stays cache-resident — a table bigger than LLC makes
  // every probe a DRAM miss and the cache loses to the (cache-friendly)
  // descent it is trying to short-circuit.
  size_t cache_cap = env_u64("MT_BENCH_CACHE_CAP", 1 << 13);
  uint32_t cache_admit = static_cast<uint32_t>(env_u64("MT_BENCH_CACHE_ADMIT", 4));
  RecordCache<Tree::Config> cache(
      RecordCache<Tree::Config>::Config{cache_cap, cache_admit});
  std::printf("\nZipf sweep (record cache, capacity=%zu, %llu reqs/line)\n",
              cache.capacity(), static_cast<unsigned long long>(requests_total));
  std::printf("%-8s %-14s %-26s %s\n", "theta", "shared Mops", "shared+cache Mops (hit%)",
              "routed+cache Mops (hit%)");

  // Request streams are pregenerated OUTSIDE the timed region: a Zipfian draw
  // costs two pow() calls, which would otherwise dominate the loop and dilute
  // the tree-side difference the figure is about. All three lines of a theta
  // share one stream; the routed line partitions it by owning worker up front
  // (per-key routing, minus the wire), so every line executes
  // exactly `requests_total` gets.
  std::vector<uint32_t> stream(requests_total);
  std::vector<std::vector<uint32_t>> owned(e.threads);

  // MT_BENCH_REPS rounds per theta, each round = one plain pass immediately
  // followed by one cached (and one routed) pass over the same stream. The
  // verdicts below compare a 2% budget against scheduler noise that on small
  // machines drifts far more than that between distant runs — so each round's
  // cached/plain ratio is taken between adjacent passes and the verdict uses
  // the MEDIAN ratio across rounds, which cancels slow drift and shrugs off
  // one freak round. The table still reports each line's best pass; the cache
  // stays warm across rounds (round 0 doubles as warmup) and hit% comes from
  // the last round.
  uint64_t bench_reps = env_u64("MT_BENCH_REPS", 3);
  auto one_pass = [&](bool use_cache, bool routed, double* hit_pct,
                      uint64_t nreq) {
    shared.set_record_cache(use_cache ? &cache : nullptr);
    uint64_t quota = nreq / e.threads;
    std::atomic<uint64_t> hits{0}, misses{0};
    double secs = run_until_all_done(e.threads, [&](unsigned t) {
      thread_local ThreadContext ti;
      uint64_t h0 = ti.counters().get(Counter::kCacheHits);
      uint64_t m0 = ti.counters().get(Counter::kCacheMisses);
      const uint32_t* ix = routed ? owned[t].data() : stream.data() + t * quota;
      size_t n = routed ? owned[t].size() : quota;
      uint64_t v;
      for (size_t i = 0; i < n; ++i) {
        shared.get(all_keys[ix[i]], &v, ti);
      }
      hits.fetch_add(ti.counters().get(Counter::kCacheHits) - h0,
                     std::memory_order_relaxed);
      misses.fetch_add(ti.counters().get(Counter::kCacheMisses) - m0,
                       std::memory_order_relaxed);
    });
    shared.set_record_cache(nullptr);
    if (hit_pct != nullptr) {
      uint64_t total = hits.load() + misses.load();
      *hit_pct = total == 0 ? 0.0
                            : 100.0 * static_cast<double>(hits.load()) /
                                  static_cast<double>(total);
    }
    return static_cast<double>(nreq) / secs / 1e6;
  };
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };

  auto gen_stream = [&](double theta) {
    if (theta == 0.0) {
      Rng rng(77);
      for (auto& x : stream) {
        x = static_cast<uint32_t>(rng.next_range(e.keys));
      }
    } else {
      Zipfian zipf(e.keys, theta, 77);
      for (auto& x : stream) {
        x = static_cast<uint32_t>(zipf.next_scrambled());
      }
    }
  };

  const double thetas[] = {0.0, 0.5, 0.9, 0.99, 1.2};
  for (double theta : thetas) {
    gen_stream(theta);
    for (auto& o : owned) {
      o.clear();
    }
    for (uint32_t x : stream) {
      owned[owner[x]].push_back(x);
    }
    cache.clear();
    double plain = 0, cached = 0, routed = 0, shit = 0, rhit = 0;
    for (uint64_t round = 0; round < bench_reps; ++round) {
      plain = std::max(plain, one_pass(false, false, nullptr, requests_total));
      cached = std::max(cached, one_pass(true, false, &shit, requests_total));
      routed = std::max(routed, one_pass(true, true, &rhit, requests_total));
    }
    std::printf("%-8.2f %-14.3f %-8.3f (%5.1f%%)%*s %.3f (%5.1f%%)\n", theta, plain,
                cached, shit, 9, "", routed, rhit);
  }

  // ---- verdicts: chunk-interleaved duels ------------------------------
  // On small virtualized hosts, scheduler-steal bursts last from tens of
  // milliseconds to whole seconds — measured here, even two back-to-back
  // identical passes disagree by ±10%, which no pass-level pairing can
  // reconcile with a 2% overhead budget. The verdicts therefore alternate
  // plain and cached execution every kDuelChunk ops on ONE thread, so each
  // chunk pair runs milliseconds apart and a burst lands on both sides of
  // the ratio; the median across pairs then discards the pairs a short
  // burst still managed to split. Per-op overhead is a single-thread
  // property, so one thread is the right measurement frame.
  uint64_t duel_req =
      std::min<uint64_t>(requests_total, env_u64("MT_BENCH_DUEL_REQS", 500000));
  constexpr uint64_t kDuelChunk = 16384;
  auto duel = [&]() {
    uint64_t pairs = std::max<uint64_t>(duel_req / kDuelChunk, 2);
    std::vector<double> rs;
    uint64_t v;
    for (uint64_t i = 0; i < pairs; ++i) {
      // All timed legs walk the SAME chunk indices: an untimed warmup leg
      // faults in the stream slice, key strings, and tree path, and the
      // timed legs run plain-cached-cached-plain so neither mode gets the
      // systematically fresher data — recency bias between adjacent legs
      // is as large as the effect being measured.
      static constexpr int kLegMode[] = {1, 0, 1, 1, 0};
      double secs[2] = {0, 0};
      for (int leg = 0; leg < 5; ++leg) {
        int mode = kLegMode[leg];
        shared.set_record_cache(mode == 1 ? &cache : nullptr);
        auto t0 = std::chrono::steady_clock::now();
        for (uint64_t k = i * kDuelChunk; k < (i + 1) * kDuelChunk; ++k) {
          shared.get(all_keys[stream[k]], &v, setup);
        }
        if (leg > 0) {
          secs[mode] += std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
        }
      }
      if (i > 0) {  // pair 0 additionally warms the bypass window
        rs.push_back(secs[0] / secs[1]);  // >1: cached side faster
      }
    }
    shared.set_record_cache(nullptr);
    return median(rs);
  };
  // The sweep left the theta=1.2 stream (and a cache warmed on it) in place.
  double hot_ratio = duel();
  gen_stream(0.0);
  double uniform_ratio = duel();
  double speedup = hot_ratio;
  double overhead_pct = (1.0 / uniform_ratio - 1.0) * 100.0;
  std::printf("\nverdict: shared+cache = %.2fx plain shared at theta=%.2f (target >= 1.3x): %s\n",
              speedup, thetas[sizeof(thetas) / sizeof(thetas[0]) - 1],
              speedup >= 1.3 ? "PASS" : "FAIL");
  std::printf("verdict: uniform-get cache overhead = %.1f%% (target <= 2%%): %s\n",
              overhead_pct, overhead_pct <= 2.0 ? "PASS" : "FAIL");
  return 0;
}
