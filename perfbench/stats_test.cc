// Tests of the benchmark's measurement primitives:
//   - Histogram percentiles against a sorted oracle, on several value shapes,
//     also for histograms merged from parts;
//   - the Poisson schedule's mean rate and exponential gaps;
//   - span self times.
// Exits non-zero on the first failed check.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "stats.h"
#include "util/rand.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what, double got, double want) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL %s: got %.6f want %.6f\n", what, got, want);
  }
}

// Oracle: the value of rank ceil(q*n) in sorted order.
uint64_t oracle(std::vector<uint64_t> v, double q) {
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

void histogram_matches_oracle() {
  masstree::Rng rng(42);
  const double kTol = 1.0 / static_cast<double>(perfbench::Histogram::kSub);
  for (int shape = 0; shape < 4; ++shape) {
    for (size_t n : {1ul, 7ul, 1000ul, 100000ul}) {
      std::vector<uint64_t> v(n);
      for (auto& x : v) {
        switch (shape) {
          case 0: x = rng.next_range(100); break;                       // exact range
          case 1: x = 1000 + rng.next_range(1000000); break;             // uniform
          case 2: x = static_cast<uint64_t>(std::exp(rng.next_double() * 25)); break;  // log-spread
          default: x = rng.next_range(100) < 99 ? 20000 : 5000000; break;  // bimodal tail
        }
      }
      perfbench::Histogram h;
      for (uint64_t x : v) {
        h.record(x);
      }
      for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        double want = static_cast<double>(oracle(v, q));
        double got = static_cast<double>(h.percentile(q));
        // Never below the true order statistic, and at most one sub-bucket
        // (2^-kSubBits relative) above it.
        expect(got >= want && got <= want * (1 + kTol) + 1e-9, "histogram percentile", got, want);
      }
      expect(h.count() == n, "histogram count", static_cast<double>(h.count()),
             static_cast<double>(n));
    }
  }
  // A histogram merged from parts answers like one fed every value.
  {
    std::vector<uint64_t> all;
    perfbench::Histogram merged;
    for (int part = 0; part < 5; ++part) {
      perfbench::Histogram h;
      for (int i = 0; i < 20000; ++i) {
        uint64_t x = part == 3 ? 3000000 + rng.next_range(1000)
                               : static_cast<uint64_t>(std::exp(rng.next_double() * 12));
        h.record(x);
        all.push_back(x);
      }
      merged += h;
    }
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
      double want = static_cast<double>(oracle(all, q));
      double got = static_cast<double>(merged.percentile(q));
      expect(got >= want && got <= want * (1 + kTol) + 1e-9, "merged histogram percentile", got,
             want);
    }
    expect(merged.count() == all.size(), "merged histogram count",
           static_cast<double>(merged.count()), static_cast<double>(all.size()));
    expect(merged.max() == *std::max_element(all.begin(), all.end()), "merged histogram max",
           static_cast<double>(merged.max()), 0);
  }
  // Bucket edges tile the value range without gaps.
  for (size_t i = 1; i < perfbench::Histogram::kBuckets; ++i) {
    if (perfbench::Histogram::bucket_low(i) != perfbench::Histogram::bucket_high(i - 1) + 1) {
      expect(false, "bucket edges contiguous", static_cast<double>(i), 0);
      break;
    }
  }
}

void poisson_mean_rate() {
  for (double rate : {1000.0, 40000.0}) {
    for (uint64_t seed : {1ull, 2ull, 3ull}) {
      const double secs = 20;
      auto at = perfbench::poisson_schedule(rate, secs, seed);
      double got = static_cast<double>(at.size()) / secs;
      // Count of a Poisson process: sd = sqrt(rate*secs); allow 5 sd.
      double tol = 5 * std::sqrt(rate * secs) / secs;
      expect(std::abs(got - rate) <= tol, "poisson mean rate", got, rate);
      bool sorted = std::is_sorted(at.begin(), at.end());
      expect(sorted, "poisson schedule ascending", 0, 0);
      // Exponential gaps: mean 1/rate and coefficient of variation ~1.
      double sum = 0;
      double sum2 = 0;
      for (size_t i = 1; i < at.size(); ++i) {
        double g = static_cast<double>(at[i] - at[i - 1]);
        sum += g;
        sum2 += g * g;
      }
      double n = static_cast<double>(at.size() - 1);
      double mean = sum / n;
      double cv = std::sqrt(sum2 / n - mean * mean) / mean;
      expect(std::abs(mean - 1e9 / rate) <= 0.05 * 1e9 / rate, "poisson mean gap", mean, 1e9 / rate);
      expect(std::abs(cv - 1) <= 0.05, "poisson gap cv", cv, 1);
    }
  }
  auto a = perfbench::poisson_schedule(5000, 1, 9);
  auto b = perfbench::poisson_schedule(5000, 1, 9);
  expect(a == b, "poisson schedule deterministic per seed", 0, 0);
}

void span_self_time() {
  perfbench::SpanBuffer sb(16);
  uint32_t req = sb.name_id("req");
  uint32_t kid = sb.name_id("kid");
  uint32_t root = sb.add(req, perfbench::SpanBuffer::kNone, 1, 0, 100);
  sb.add(kid, root, 1, 10, 30);
  sb.add(kid, root, 1, 20, 50);   // overlaps the first child
  sb.add(kid, root, 1, 90, 120);  // runs past the parent: clipped
  auto t = sb.totals();
  expect(t[req].self_ns == 100 - 40 - 10, "span self time", t[req].self_ns, 50);
  expect(t[kid].count == 3, "span count", static_cast<double>(t[kid].count), 3);
  perfbench::SpanBuffer full(1);
  full.add(req, perfbench::SpanBuffer::kNone, 1, 0, 1);
  full.add(req, perfbench::SpanBuffer::kNone, 2, 0, 1);
  expect(full.dropped() == 1 && full.spans().size() == 1, "span buffer drops when full",
         static_cast<double>(full.dropped()), 1);
}

}  // namespace

int main() {
  histogram_matches_oracle();
  poisson_mean_rate();
  span_self_time();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_stats_test: all checks passed\n");
  return 0;
}
