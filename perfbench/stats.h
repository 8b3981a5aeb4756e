// Measurement primitives of the wire benchmark: a log-linear latency
// histogram, the open-loop Poisson arrival schedule, the span buffer the
// traced run records into, and small order statistics.
//
// The histogram and the span buffer do not allocate once constructed, so
// they can sit inside the timed windows without perturbing them.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/rand.h"

namespace perfbench {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// HDR-style log-linear histogram over non-negative integers (nanoseconds
// here). Values below 2^kSubBits are exact; above, each power-of-two octave
// splits into 2^kSubBits equal sub-buckets, so a reported percentile is
// never more than 2^-kSubBits (0.8%) above the true order statistic.
class Histogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr int kMaxBits = 42;  // values clamp at ~73 minutes of ns
  static constexpr size_t kBuckets = static_cast<size_t>(kMaxBits - kSubBits + 1) * kSub;

  void record(uint64_t v) {
    v = std::min<uint64_t>(v, (uint64_t{1} << kMaxBits) - 1);
    ++counts_[index(v)];
    ++n_;
    max_ = std::max(max_, v);
  }

  uint64_t count() const { return n_; }
  uint64_t max() const { return max_; }

  Histogram& operator+=(const Histogram& o) {
    for (size_t i = 0; i < kBuckets; ++i) {
      counts_[i] += o.counts_[i];
    }
    n_ += o.n_;
    max_ = std::max(max_, o.max_);
    return *this;
  }

  // The q-quantile as the value of rank ceil(q*n) (1-based), reported as the
  // highest value its bucket can hold (clamped to the observed maximum).
  uint64_t percentile(double q) const {
    if (n_ == 0) {
      return 0;
    }
    uint64_t rank = rank_of(q);
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) {
        return std::min(bucket_high(i), max_);
      }
    }
    return max_;
  }

  // Samples strictly beyond the q-quantile's rank: how much evidence a tail
  // percentile rests on.
  uint64_t beyond(double q) const { return n_ - rank_of(q); }

  static size_t index(uint64_t v) {
    if (v < kSub) {
      return static_cast<size_t>(v);
    }
    int msb = 63 - std::countl_zero(v);
    int e = msb - kSubBits + 1;  // octave, >= 1
    uint64_t m = v >> (e - 1);   // in [kSub, 2*kSub)
    return static_cast<size_t>(e) * kSub + static_cast<size_t>(m - kSub);
  }

  static uint64_t bucket_low(size_t i) {
    uint64_t e = i / kSub;
    uint64_t m = i % kSub;
    return e == 0 ? m : (kSub + m) << (e - 1);
  }

  static uint64_t bucket_high(size_t i) {
    uint64_t e = i / kSub;
    return e == 0 ? bucket_low(i) : bucket_low(i) + (uint64_t{1} << (e - 1)) - 1;
  }

 private:
  uint64_t rank_of(double q) const {
    double r = std::ceil(q * static_cast<double>(n_));
    return std::clamp<uint64_t>(static_cast<uint64_t>(r), 1, n_);
  }

  std::array<uint64_t, kBuckets> counts_{};
  uint64_t n_ = 0;
  uint64_t max_ = 0;
};

// Open-loop arrival schedule: offsets (ns from the start of the phase) of a
// Poisson process with the given absolute rate, covering `secs`.
inline std::vector<int64_t> poisson_schedule(double rate_per_s, double secs, uint64_t seed) {
  masstree::Rng rng(seed);
  std::vector<int64_t> at;
  at.reserve(static_cast<size_t>(rate_per_s * secs * 1.05) + 16);
  const double horizon = secs * 1e9;
  double t = 0;
  for (;;) {
    t += -std::log1p(-rng.next_double()) / rate_per_s * 1e9;
    if (t >= horizon) {
      break;
    }
    at.push_back(static_cast<int64_t>(t));
  }
  return at;
}

inline double median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent, and the id of the request they belong to.
// Recorded into a buffer preallocated before the traced window; once full,
// further spans are counted as dropped, never allocated.
struct Span {
  uint32_t name = 0;     // index into SpanBuffer::names()
  uint32_t parent = 0;   // buffer index + 1 of the parent span; 0 = root
  uint64_t req = 0;      // request id shared by every span of one request
  int64_t start = 0;
  int64_t end = 0;
};

class SpanBuffer {
 public:
  static constexpr uint32_t kNone = ~0u;

  explicit SpanBuffer(size_t capacity) { spans_.reserve(capacity); }

  uint32_t name_id(const std::string& name) {
    for (uint32_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) {
        return i;
      }
    }
    names_.push_back(name);
    return static_cast<uint32_t>(names_.size() - 1);
  }

  // Opens a span and returns its handle (kNone if the buffer is full).
  uint32_t open(uint32_t name, uint32_t parent, uint64_t req, int64_t start) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return kNone;
    }
    spans_.push_back(Span{name, parent == kNone ? 0 : parent + 1, req, start, start});
    return static_cast<uint32_t>(spans_.size() - 1);
  }

  void close(uint32_t h, int64_t end) {
    if (h != kNone) {
      spans_[h].end = end;
    }
  }

  // A complete span in one call.
  uint32_t add(uint32_t name, uint32_t parent, uint64_t req, int64_t start, int64_t end) {
    uint32_t h = open(name, parent, req, start);
    close(h, end);
    return h;
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }
  uint64_t dropped() const { return dropped_; }

  // Per-name totals: count, summed duration, and summed self time (duration
  // minus the union of the children's intervals, clipped to the parent).
  struct NameTotals {
    uint64_t count = 0;
    double total_ns = 0;
    double self_ns = 0;
  };

  std::vector<NameTotals> totals() const {
    std::vector<NameTotals> out(names_.size());
    // Children of span i, as (start, end) clipped to i's interval.
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent != 0) {
        const Span& p = spans_[s.parent - 1];
        int64_t a = std::max(s.start, p.start);
        int64_t b = std::min(s.end, p.end);
        if (b > a) {
          kids[s.parent - 1].emplace_back(a, b);
        }
      }
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto& k = kids[i];
      std::sort(k.begin(), k.end());
      int64_t covered = 0;
      int64_t cur_a = 0;
      int64_t cur_b = 0;
      bool open_run = false;
      for (const auto& [a, b] : k) {
        if (!open_run || a > cur_b) {
          if (open_run) {
            covered += cur_b - cur_a;
          }
          cur_a = a;
          cur_b = b;
          open_run = true;
        } else {
          cur_b = std::max(cur_b, b);
        }
      }
      if (open_run) {
        covered += cur_b - cur_a;
      }
      double dur = static_cast<double>(s.end - s.start);
      out[s.name].count += 1;
      out[s.name].total_ns += dur;
      out[s.name].self_ns += dur - static_cast<double>(covered);
    }
    return out;
  }

  // Writes every span as a tab-separated line: index, request id, name,
  // parent index (-1 for roots), start and end in ns.
  bool write_tsv(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "idx\treq\tname\tparent\tstart_ns\tend_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%llu\t%s\t%lld\t%lld\t%lld\n", i,
                   static_cast<unsigned long long>(s.req), names_[s.name].c_str(),
                   static_cast<long long>(s.parent) - 1, static_cast<long long>(s.start),
                   static_cast<long long>(s.end));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  uint64_t dropped_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
