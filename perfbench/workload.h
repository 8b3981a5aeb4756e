// The benchmark's inputs: key tables, values derived from keys, op streams
// pregenerated from the seed, and the checks every response must pass.
//
// Keys and values never need a lookup table to verify: a value is a pure
// function of its key (and, for overwritten keys, of the version number the
// value itself carries), so any response can be checked on the spot.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "util/rand.h"
#include "workload/keys.h"

namespace perfbench {

using masstree::splitmix64;

// ---------------------------------------------------------------------------
// Workload definitions. Rates and sizes are fixed here and recorded with the
// results; nothing is derived from a run.
enum class ValueKind : uint8_t { kHex32, kJson256 };

struct WorkloadSpec {
  const char* name;
  uint64_t keys;        // base keyspace: decimal_key(0 .. keys-1)
  ValueKind value;
  unsigned get_pct, put_pct, scan_pct, insert_pct;
  double zipf_theta;    // 0 = uniform key choice
  double open_rate;     // open-loop Poisson arrivals, requests/s
  unsigned frame_ops;   // closed loop: ops per frame
  unsigned depth;       // closed loop: frames in flight per connection
  uint64_t warm_ops;    // closed-loop ops run at the end of every set-up
};

inline constexpr unsigned kConns = 4;
inline constexpr unsigned kScanMax = 100;

// rw_zipf_logged's open-loop rate is kept low on purpose. With logging on,
// a server worker stalls for 1-1.5 ms every few tens of milliseconds, more
// often the more it writes. At 20000-40000 req/s the requests those stalls
// delay are about 1% of the total, so the p99 lands above or below the stall
// from run to run (170-1000 us on the reference host); at 10000 req/s it
// still does in some runs. At 5000 req/s they are well under 1%: the p99 is
// steady, and the stall shows in the p999 and maximum printed beside it. A
// change that makes the stall several times more frequent still moves the
// p99.
inline const WorkloadSpec kWorkloads[] = {
    {"read_uniform", 2000000, ValueKind::kHex32, 100, 0, 0, 0, 0.0, 40000, 32, 4, 1000000},
    {"rw_zipf_logged", 1000000, ValueKind::kJson256, 50, 50, 0, 0, 0.99, 5000, 32, 4, 400000},
    {"scan_insert", 2000000, ValueKind::kHex32, 0, 0, 95, 5, 0.0, 20000, 8, 4, 100000},
};

inline const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Keys: "1-to-10-byte decimal" (masstree::decimal_key), stored in fixed
// 16-byte slots so a multi-million-key table costs no per-key allocation.
class KeyTable {
 public:
  KeyTable() = default;

  // Base keys: index i holds decimal_key(i).
  static KeyTable base(uint64_t n) {
    KeyTable t;
    t.slots_.resize(n * kSlot);
    for (uint64_t i = 0; i < n; ++i) {
      t.set(i, splitmix64(i) % (uint64_t{1} << 31));
    }
    return t;
  }

  // Fresh keys drawn from the same 2^31 decimal space, so they interleave
  // with the base keys (a rare collision just overwrites a base key).
  static KeyTable fresh(uint64_t n, uint64_t seed) {
    KeyTable t;
    t.slots_.resize(n * kSlot);
    uint64_t base = (uint64_t{1} << 40) + (seed << 24);
    for (uint64_t i = 0; i < n; ++i) {
      t.set(i, splitmix64(base + i) % (uint64_t{1} << 31));
    }
    return t;
  }

  std::string_view operator[](uint64_t i) const {
    const char* s = slots_.data() + i * kSlot;
    return std::string_view(s, static_cast<uint8_t>(s[kSlot - 1]));
  }

  uint64_t size() const { return slots_.size() / kSlot; }

 private:
  static constexpr size_t kSlot = 16;

  void set(uint64_t i, uint64_t num) {
    char* s = slots_.data() + i * kSlot;
    auto r = std::to_chars(s, s + kSlot - 1, num);
    s[kSlot - 1] = static_cast<char>(r.ptr - s);
  }

  std::vector<char> slots_;
};

// Base key indices sorted by key bytes: answers "how many base keys lie in
// [a, b]" for the scan checks.
class SortedKeys {
 public:
  explicit SortedKeys(const KeyTable& keys) : keys_(&keys) {
    idx_.resize(keys.size());
    std::iota(idx_.begin(), idx_.end(), 0u);
    std::sort(idx_.begin(), idx_.end(),
              [&](uint32_t a, uint32_t b) { return keys[a] < keys[b]; });
    // decimal_key collides a few times in millions; keep one of each.
    idx_.erase(std::unique(idx_.begin(), idx_.end(),
                           [&](uint32_t a, uint32_t b) { return keys[a] == keys[b]; }),
               idx_.end());
  }

  // Number of distinct base keys >= k.
  size_t count_at_or_after(std::string_view k) const {
    auto it = std::lower_bound(idx_.begin(), idx_.end(), k,
                               [&](uint32_t a, std::string_view v) { return (*keys_)[a] < v; });
    return static_cast<size_t>(idx_.end() - it);
  }

  // Number of distinct base keys in [a, b].
  size_t count_in(std::string_view a, std::string_view b) const {
    auto lo = std::lower_bound(idx_.begin(), idx_.end(), a,
                               [&](uint32_t x, std::string_view v) { return (*keys_)[x] < v; });
    auto hi = std::upper_bound(idx_.begin(), idx_.end(), b,
                               [&](std::string_view v, uint32_t x) { return v < (*keys_)[x]; });
    return hi > lo ? static_cast<size_t>(hi - lo) : 0;
  }

 private:
  const KeyTable* keys_;
  std::vector<uint32_t> idx_;
};

// ---------------------------------------------------------------------------
// Values.
inline uint64_t key_hash(std::string_view k, uint64_t salt = 0) {
  uint64_t h = 1469598103934665603ull ^ salt;
  for (char c : k) {
    h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
  }
  return splitmix64(h);
}

inline constexpr size_t kHexLen = 32;
inline constexpr size_t kJsonLen = 256;

// 32 hex digits of the key's hash: incompressible and under the log's
// compression threshold.
inline void hex32_value(std::string_view key, char* out) {
  static const char kDigits[] = "0123456789abcdef";
  uint64_t a = key_hash(key, 1);
  uint64_t b = key_hash(key, 2);
  for (int i = 0; i < 16; ++i) {
    out[i] = kDigits[(a >> (i * 4)) & 15];
    out[16 + i] = kDigits[(b >> (i * 4)) & 15];
  }
}

// A 256-byte JSON-like record for (key, version): the key and version as
// fields, then a body picked from a fixed set of word-salad templates, so the
// value compresses like real documents (it passes the 128-byte threshold).
class JsonValues {
 public:
  JsonValues() {
    static const char* kWords[] = {"alpha", "bravo",  "charlie", "delta", "echo",
                                   "foxtrot", "golf", "hotel",   "india", "juliet",
                                   "kilo",  "lima",   "mike",    "november"};
    masstree::Rng rng(0x5eed);
    for (auto& body : bodies_) {
      std::string s;
      while (s.size() < kBodyLen) {
        s += kWords[rng.next_range(std::size(kWords))];
        s += ' ';
      }
      std::memcpy(body, s.data(), kBodyLen);
    }
  }

  // Layout: {"k":"<key, 10 chars>","v":<10 digits>,"b":"<body>"}
  void make(std::string_view key, uint32_t ver, char* out) const {
    char* p = out;
    p = put(p, "{\"k\":\"");
    std::memset(p, ' ', 10);
    std::memcpy(p, key.data(), std::min<size_t>(key.size(), 10));
    p += 10;
    p = put(p, "\",\"v\":");
    char digits[10];
    uint32_t x = ver;
    for (int i = 9; i >= 0; --i) {
      digits[i] = static_cast<char>('0' + x % 10);
      x /= 10;
    }
    std::memcpy(p, digits, 10);
    p += 10;
    p = put(p, ",\"b\":\"");
    std::memcpy(p, bodies_[key_hash(key, ver) % kBodies], kBodyLen);
    p += kBodyLen;
    p = put(p, "\"}");
  }

  // True if `v` is make(key, ver) for the version it carries.
  bool check(std::string_view key, std::string_view v) const {
    if (v.size() != kJsonLen) {
      return false;
    }
    uint32_t ver = 0;
    for (size_t i = kVerAt; i < kVerAt + 10; ++i) {
      char c = v[i];
      if (c < '0' || c > '9') {
        return false;
      }
      ver = ver * 10 + static_cast<uint32_t>(c - '0');
    }
    char expect[kJsonLen];
    make(key, ver, expect);
    return std::memcmp(expect, v.data(), kJsonLen) == 0;
  }

 private:
  static constexpr size_t kHead = 6 + 10 + 6 + 10 + 6;  // up to the body
  static constexpr size_t kVerAt = 6 + 10 + 6;
  static constexpr size_t kBodyLen = kJsonLen - kHead - 2;
  static constexpr size_t kBodies = 64;

  static char* put(char* p, const char* s) {
    size_t n = std::strlen(s);
    std::memcpy(p, s, n);
    return p + n;
  }

  char bodies_[kBodies][kBodyLen];
};

// Value of `key` at version `ver` for the workload's value kind; writes
// value_len(kind) bytes.
inline size_t value_len(ValueKind k) { return k == ValueKind::kHex32 ? kHexLen : kJsonLen; }

inline void make_value(ValueKind k, const JsonValues& json, std::string_view key, uint32_t ver,
                       char* out) {
  if (k == ValueKind::kHex32) {
    hex32_value(key, out);
  } else {
    json.make(key, ver, out);
  }
}

inline bool check_value(ValueKind k, const JsonValues& json, std::string_view key,
                        std::string_view v) {
  if (k == ValueKind::kHex32) {
    char expect[kHexLen];
    hex32_value(key, expect);
    return v.size() == kHexLen && std::memcmp(expect, v.data(), kHexLen) == 0;
  }
  return json.check(key, v);
}

// ---------------------------------------------------------------------------
// Op streams.
enum class OpKind : uint8_t { kGet, kPut, kScan, kInsert };

struct Op {
  OpKind kind = OpKind::kGet;
  uint8_t scan_len = 0;  // kScan: pairs requested (1..kScanMax)
  uint32_t key = 0;      // base key index; kInsert: fresh key index
  uint32_t ver = 0;      // kPut: version carried by the written value
};

// `n` ops of the workload's mix. Puts carry versions first_ver, first_ver+1,
// ... so every written value is distinct. Inserts take fresh keys in order
// starting at *next_fresh.
inline std::vector<Op> make_stream(const WorkloadSpec& w, uint64_t keys, size_t n, uint64_t seed,
                                   uint32_t first_ver, uint32_t* next_fresh) {
  std::vector<Op> ops(n);
  masstree::Rng rng(seed);
  masstree::SkewGen pick = w.zipf_theta > 0
                               ? masstree::SkewGen::zipf(keys, w.zipf_theta, seed ^ 0x2f)
                               : masstree::SkewGen::uniform(keys, seed ^ 0x2f);
  uint32_t ver = first_ver;
  for (Op& op : ops) {
    uint64_t r = rng.next_range(100);
    if (r < w.get_pct) {
      op.kind = OpKind::kGet;
      op.key = static_cast<uint32_t>(pick.next_index());
    } else if (r < w.get_pct + w.put_pct) {
      op.kind = OpKind::kPut;
      op.key = static_cast<uint32_t>(pick.next_index());
      op.ver = ver++;
    } else if (r < w.get_pct + w.put_pct + w.scan_pct) {
      op.kind = OpKind::kScan;
      op.key = static_cast<uint32_t>(pick.next_index());
      op.scan_len = static_cast<uint8_t>(1 + rng.next_range(kScanMax));
    } else {
      op.kind = OpKind::kInsert;
      op.key = (*next_fresh)++;
    }
  }
  return ops;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
