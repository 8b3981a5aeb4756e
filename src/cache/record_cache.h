// RecordCache — fixed-capacity, latch-free hot-key record cache in front of
// the tree (the ROADMAP's Figure 11 item; Deuteronomy 2.0's record-caching +
// latch-freedom shape, the web-cache papers' front-cache placement).
//
// Each entry remembers where a key's value LIVES — (border node, slot) — plus
// the border's version word observed at fill time and the epoch the filling
// guard was pinned at. A hit never trusts cached value bytes: it re-reads the
// slot's live value word (so in-place updates are always fresh) and then
// re-validates the border with the same changed_since() check the lookup
// cursor uses — any split, slot reuse, removal, layer push-down, or node
// deletion since the fill dirties or bumps the version word and kills the
// entry instead of serving stale data. Strict consistency is inherited from
// the §4.5 protocol, not re-invented beside it.
//
// Why the cached node pointer is safe to dereference: an entry is valid for a
// reader whose guard is pinned at epoch C only if the fill epoch F >= C.
//   * A node reachable and cleanly version-validated during the fill guard
//     (pinned at F) was retired, if ever, at epoch R >= F - 1: the retirer
//     holds its own guard, whose pin blocks the global epoch from running
//     more than one step ahead of it (the gated advance in epoch/epoch.h).
//   * reclaim() frees a retired node only once min_active >= R + 2 >= F + 1.
//   * C <= F means the global epoch never reached F + 1 before the reader
//     pinned (epochs are monotone), so the node was not yet freed — and from
//     then on the reader's own pin holds min_active <= C <= F < F + 1, which
//     blocks the free until the reader leaves. The check needs nothing but
//     the reader's own already-pinned slot value; no extra fences.
// F >= C would fail within one epoch tick (~4096 guarded ops) if the cache
// did nothing else, making entries die as fast as they are filled. So the
// cache registers ONE epoch slot of its own and keeps it pinned: a pin at P
// caps the global epoch at P + 1, so every entry filled while the pin holds
// stays valid for every reader until the cache "rotates" the pin forward.
// Rotation happens every kMaintPeriod misses per thread (fill-driven) and on
// maintain() (the Store's background maintenance thread ticks it), trading a
// bounded reclamation delay — limbo waits at most a rotation period longer —
// for entry lifetimes of tens of thousands of operations. Expired entries are
// refreshed in place by the next miss (one ordinary descent per key per
// rotation), and admission never gates a refresh.
//
// Cache-hostile traffic (uniform gets over a keyspace far larger than the
// table) cannot be served by any policy, so it must not be taxed either: each
// thread tracks its own hit rate over kBypassWindow-attempt windows, and when
// it drops below 1/32 (~3%, under the hit-vs-descent break-even) the thread
// stops probing and filling on 15 of 16 ops — those descend directly, counted
// as ordinary misses. The sampled ops keep measuring, so a workload that
// turns hot re-enables full probing within a few windows.
//
// Structure: an open-addressed power-of-two array of 64-byte (one cache line)
// entries probed kWays at a time, fronted by a byte-per-entry tag array so a
// uniform-miss probe usually touches ONE tag line and no entry lines at all —
// the cache must not tax the cold-get path it cannot serve. Entries are
// published with a seqlock whose fields are all relaxed atomics (TSan-clean);
// readers take no locks and write nothing but the CLOCK ref hint. New keys
// claim empty ways freely; displacing a live entry requires a TinyLFU-style
// frequency-sketch estimate to clear the admission threshold, so one-shot
// keys don't evict genuinely hot ones. Eviction is CLOCK second-chance over
// the probe group — zero steady-state allocation.

#ifndef MASSTREE_CACHE_RECORD_CACHE_H_
#define MASSTREE_CACHE_RECORD_CACHE_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string_view>

#include "core/node.h"
#include "core/threadinfo.h"
#include "core/version.h"
#include "util/compiler.h"
#include "util/counters.h"

namespace masstree {

// Stream hash for partitioning keys over workers (hash(key) % nworkers):
// fig11_skew's in-process model of per-key routing uses it. The cache indexes
// its buckets with a faster hash over the packed key words (hash_words
// below); the two don't need to agree — affinity comes from the same keys
// reaching the same worker, wherever their entries land in that worker's
// (shared) table.
inline uint64_t key_hash64(std::string_view s) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a, then a splitmix-style mix
  for (char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ull;
  }
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return h;
}

template <typename C>
class RecordCache {
 public:
  using Border = BorderNode<C>;
  using Version = VersionValue;

  struct Config {
    // Entry count (64 bytes each); rounded up to a power of two, min kWays.
    size_t capacity = 1 << 16;
    // Minimum sketch estimate before a missed key may DISPLACE a live entry;
    // <= 1 admits every miss (tests use that for determinism). Refreshing an
    // already-cached key and claiming an empty way are never gated.
    uint32_t admit_threshold = 4;
    // Only 1-in-2^shift bucket-full misses consult (and bump) the admission
    // sketch; the rest are rejected outright. Relative key frequencies are
    // preserved under uniform sampling, and the sketch RMW leaves the
    // cold-get fast path. 0 = every miss (tests use that for determinism).
    unsigned gate_sample_shift = 2;
  };

  static constexpr size_t kMaxInlineKey = 32;  // longer keys bypass the cache
  static constexpr unsigned kWays = 4;         // probe group = one bucket

  explicit RecordCache(Config cfg = Config())
      : cfg_(cfg),
        mask_(round_pow2(std::max<size_t>(cfg.capacity, kWays)) - 1),
        entries_(new Entry[mask_ + 1]),
        tags_(new std::atomic<uint8_t>[mask_ + 1]()),
        sketch_mask_(std::max<size_t>(kSketchMinWidth, 4 * (mask_ + 1)) - 1),
        sketch_(new std::atomic<uint8_t>[sketch_mask_ + 1]()) {}

  ~RecordCache() {
    EpochSlot* p = pin_.load(std::memory_order_acquire);
    if (p != nullptr) {
      p->active.store(0, std::memory_order_release);
      pin_mgr_.load(std::memory_order_acquire)->unregister_thread(p);
    }
  }

  RecordCache(const RecordCache&) = delete;
  RecordCache& operator=(const RecordCache&) = delete;

  size_t capacity() const { return mask_ + 1; }
  uint32_t admit_threshold() const { return cfg_.admit_threshold; }

  // Probe for `key`. MUST be called with the caller's EpochGuard held on
  // ti.slot(); on a validated hit *value receives the slot's LIVE value word.
  // Exactly one of kCacheHits / kCacheMisses is counted per call, so
  // hit_pct = hits / (hits + misses) over any window; bypass-skipped calls
  // count as misses (the op does go to the tree). On a short-key miss that
  // actually probed, *h_out (if non-null) receives the internal hash so the
  // caller can hand it back to fill() and skip a second pack+hash of the
  // same key; on bypass-skipped and long-key misses it is left untouched, so
  // a caller that zero-initialized it can elide the fill() call outright.
  bool lookup(std::string_view key, uint64_t* value, ThreadContext& ti,
              uint64_t* h_out = nullptr) {
    ThreadCounters& ctrs = ti.counters();
    if (key.size() > kMaxInlineKey) {
      ctrs.inc(Counter::kCacheMisses);
      return false;
    }
    assert(ti.slot().active.load(std::memory_order_relaxed) != 0 &&
           "lookup requires the caller's EpochGuard");
    BypassState& bs = bypass_state(id_);
    if (bs.bypassed && (++bs.skip & kBypassSampleMask) != 0) {
      // This thread's hit rate is under break-even: skip the probe (and the
      // paired fill) on unsampled ops — a plain descent, a plain miss.
      bs.fill_ok = false;
      ctrs.inc(Counter::kCacheMisses);
      return false;
    }
    bs.fill_ok = true;
    if (++bs.attempts >= kBypassWindow) {
      bs.bypassed = (bs.window_hits << kBypassHitShift) < bs.attempts;
      bs.attempts = 0;
      bs.window_hits = 0;
    }
    uint64_t kw[kWords];
    pack_key(key, kw);
    uint64_t h = hash_words(kw, key.size());
    if (h_out != nullptr) {
      *h_out = h;
    }
    uint8_t tag = tag_of(h);
    size_t base = bucket_base(h);
    for (unsigned w = 0; w < kWays; ++w) {
      if (tags_[base + w].load(std::memory_order_relaxed) != tag) {
        continue;  // the tag filter keeps cold probes off the entry lines
      }
      Entry& e = entries_[base + w];
      uint32_t s1 = e.seq.load(std::memory_order_acquire);
      if (s1 & 1) {
        continue;  // a writer owns it right now; treat as absent
      }
      uint32_t meta = e.meta.load(std::memory_order_relaxed);
      uint64_t ekw[kWords];
      for (size_t i = 0; i < kWords; ++i) {
        ekw[i] = e.kw[i].load(std::memory_order_relaxed);
      }
      void* np = e.node.load(std::memory_order_relaxed);
      uint32_t ver = e.ver.load(std::memory_order_relaxed);
      uint64_t ep = e.epoch.load(std::memory_order_relaxed);
      acquire_fence();  // TSan-safe seqlock fence (util/compiler.h)
      if (e.seq.load(std::memory_order_relaxed) != s1) {
        continue;  // torn snapshot; the entry is being rewritten
      }
      if ((meta & kLenMask) != key.size() + 1 || !words_equal(ekw, kw)) {
        continue;
      }
      // The key is cached. From here on this call resolves to exactly one
      // hit or one miss — duplicates in later ways are benign leftovers.
      if (ep < ti.slot().active.load(std::memory_order_relaxed)) {
        // Fill-epoch expired: the node pointer is no longer provably alive
        // (see the header proof). Miss; the refill refreshes this entry.
        ctrs.inc(Counter::kCacheMisses);
        return false;
      }
      const Border* n = static_cast<const Border*>(np);
      int slot = static_cast<int>((meta >> kSlotShift) & kSlotMask);
      // Read the live value BEFORE validating (the cursor's validate-after-
      // read discipline); the acquire lv load keeps the version load below it.
      uint64_t lv = n->lv(slot);
      if (n->version().changed_since(Version(ver))) {
        ctrs.inc(Counter::kCacheInvalidations);
        ctrs.inc(Counter::kCacheMisses);
        erase_if_unchanged(base + w, s1);
        return false;
      }
      if (!(meta & kRefBit)) {
        e.meta.fetch_or(kRefBit, std::memory_order_relaxed);  // CLOCK hint
      }
      ctrs.inc(Counter::kCacheHits);
      ++bs.window_hits;
      *value = lv;
      return true;
    }
    ctrs.inc(Counter::kCacheMisses);
    return false;
  }

  // Publish (key -> node/slot/version) after a successful descent. MUST run
  // under the SAME EpochGuard whose lookup validated `ver` against `node`:
  // the guard slot's pinned epoch is stamped into the entry and bounds when
  // the node pointer may be dereferenced again.
  // `h_hint`, when non-null, is the hash lookup() just produced for this key
  // (the Tree's get path threads it through so a miss packs+hashes once).
  void fill(std::string_view key, Border* node, Version ver, int slot, ThreadContext& ti,
            const uint64_t* h_hint = nullptr) {
    if (key.size() > kMaxInlineKey || slot < 0 || node == nullptr) {
      return;
    }
    BypassState& bs = bypass_state(id_);
    if (!bs.fill_ok) {
      return;  // the paired lookup was bypass-skipped; so is this fill
    }
    uint64_t miss_count = maybe_maintain(ti, bs);
    uint64_t kw[kWords];
    pack_key(key, kw);
    uint64_t h = h_hint != nullptr ? *h_hint : hash_words(kw, key.size());
    uint8_t tag = tag_of(h);
    size_t base = bucket_base(h);
    // Pass 1: the key is already cached — refresh that entry in place (also
    // the epoch-expiry refresh path; never admission-gated).
    for (unsigned w = 0; w < kWays; ++w) {
      if (tags_[base + w].load(std::memory_order_relaxed) != tag) {
        continue;
      }
      Entry& e = entries_[base + w];
      uint32_t s1 = e.seq.load(std::memory_order_acquire);
      if (s1 & 1) {
        continue;
      }
      uint32_t meta = e.meta.load(std::memory_order_relaxed);
      uint64_t ekw[kWords];
      for (size_t i = 0; i < kWords; ++i) {
        ekw[i] = e.kw[i].load(std::memory_order_relaxed);
      }
      acquire_fence();  // TSan-safe seqlock fence (util/compiler.h)
      if (e.seq.load(std::memory_order_relaxed) != s1 ||
          (meta & kLenMask) != key.size() + 1 || !words_equal(ekw, kw)) {
        continue;
      }
      uint32_t s = s1;
      if (!e.seq.compare_exchange_strong(s, s + 1, std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
        return;  // a racing fill owns the entry; its publish is as good
      }
      publish(e, base + w, kw, key.size(), node, ver, slot, tag,
              meta & kRefBit, ti);
      return;
    }
    // Pass 2: claim an empty way (ungated: filling unused space costs no one).
    for (unsigned w = 0; w < kWays; ++w) {
      if (tags_[base + w].load(std::memory_order_relaxed) != 0) {
        continue;
      }
      Entry& e = entries_[base + w];
      uint32_t s = e.seq.load(std::memory_order_relaxed);
      if ((s & 1) != 0 ||
          !e.seq.compare_exchange_strong(s, s + 1, std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
        continue;
      }
      if (e.meta.load(std::memory_order_relaxed) != 0) {
        // A racer filled this way between the tag read and our claim; put
        // the seqlock back (bumped; concurrent readers just retry as a miss).
        e.seq.store(s + 2, std::memory_order_release);
        continue;
      }
      publish(e, base + w, kw, key.size(), node, ver, slot, tag, 0, ti);
      return;
    }
    // The bucket is full of other keys: displacing one is gated by the
    // admission sketch so a one-shot key can't churn the resident hot set.
    // Most misses don't even consult the sketch (see gate_sample_shift).
    if (cfg_.admit_threshold > 1) {
      if ((miss_count & ((uint64_t{1} << cfg_.gate_sample_shift) - 1)) != 0) {
        return;
      }
      if (sketch_bump(h) < cfg_.admit_threshold) {
        return;  // not yet hot enough to displace anything
      }
    }
    // Pass 3: CLOCK second-chance across the probe group, starting at the
    // shared hand for fairness. After one full lap every ref bit is clear, so
    // the second lap always picks a victim.
    size_t vi = base;
    bool found = false;
    unsigned start = hand_.fetch_add(1, std::memory_order_relaxed) % kWays;
    for (unsigned i = 0; i < 2 * kWays && !found; ++i) {
      size_t idx = base + (start + i) % kWays;
      uint32_t meta = entries_[idx].meta.load(std::memory_order_relaxed);
      if (meta & kRefBit) {
        entries_[idx].meta.fetch_and(~kRefBit, std::memory_order_relaxed);
      } else {
        vi = idx;
        found = true;
      }
    }
    if (!found) {
      vi = base + start;
    }
    // Claim via the seqlock; losing the race just skips this fill.
    Entry& e = entries_[vi];
    uint32_t s = e.seq.load(std::memory_order_relaxed);
    if ((s & 1) != 0 ||
        !e.seq.compare_exchange_strong(s, s + 1, std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
      return;
    }
    uint32_t old_meta = e.meta.load(std::memory_order_relaxed);
    bool displaced_other = false;
    if (old_meta != 0) {
      uint64_t okw[kWords];
      for (size_t i = 0; i < kWords; ++i) {
        okw[i] = e.kw[i].load(std::memory_order_relaxed);
      }
      displaced_other =
          (old_meta & kLenMask) != key.size() + 1 || !words_equal(okw, kw);
    }
    if (displaced_other) {
      ti.counters().inc(Counter::kCacheEvictions);
    }
    publish(e, vi, kw, key.size(), node, ver, slot, tag, 0, ti);
  }

  // Rotate the cache's epoch pin forward so reclamation behind it can drain.
  // The Store's background maintenance thread ticks this (via the tree's
  // run_maintenance); fill() also rotates every kMaintPeriod misses so raw
  // Tree users get it for free. Entries stamped under the old pin expire for
  // readers as the global epoch moves on and are refreshed on their next miss.
  void maintain() { rotate(); }

  // Drop every entry (tests / reconfiguration; not a hot path).
  void clear() {
    for (size_t i = 0; i <= mask_; ++i) {
      Entry& e = entries_[i];
      uint32_t s = e.seq.load(std::memory_order_relaxed);
      if ((s & 1) == 0 &&
          e.seq.compare_exchange_strong(s, s + 1, std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
        e.meta.store(0, std::memory_order_relaxed);
        tags_[i].store(0, std::memory_order_relaxed);
        e.seq.store(s + 2, std::memory_order_release);
      }
    }
    for (size_t i = 0; i <= sketch_mask_; ++i) {
      sketch_[i].store(0, std::memory_order_relaxed);
    }
  }

 private:
  static constexpr size_t kWords = kMaxInlineKey / sizeof(uint64_t);
  // meta: bits 0..7 = key length + 1 (0 = empty entry, so the empty key is
  // representable), bits 8..11 = slot, bit 16 = CLOCK ref hint.
  static constexpr uint32_t kLenMask = 0xFFu;
  static constexpr unsigned kSlotShift = 8;
  static constexpr uint32_t kSlotMask = 0xFu;
  static constexpr uint32_t kRefBit = 1u << 16;
  // Per-thread misses between maintenance ticks (pin rotation + sketch
  // reset): with T threads missing at similar rates, ticks land every
  // ~kMaintPeriod GLOBAL misses regardless of T.
  static constexpr uint64_t kMaintPeriod = 16 * 1024;

  // ---- adaptive bypass (see the header comment) ----------------------
  // A hit saves a descent (hundreds of ns); a fruitless probe+fill costs a
  // few tens. Break-even is a hit rate of a few percent, so full probing is
  // kept only while the windowed rate clears 1/2^kBypassHitShift.
  static constexpr uint32_t kBypassWindow = 2048;    // attempts per window
  static constexpr uint32_t kBypassHitShift = 5;     // keep probing iff >= 1/32
  static constexpr uint32_t kBypassSampleMask = 15;  // probe 1-in-16 when under

  struct BypassState {
    uint64_t cache_id = 0;
    uint32_t attempts = 0;     // probes charged to the current window
    uint32_t window_hits = 0;  // hits observed in the current window
    uint32_t skip = 0;         // sampling wheel while bypassed
    bool bypassed = false;
    bool fill_ok = true;       // did the latest lookup actually probe?
    uint64_t last_maint = 0;   // miss count at this thread's last tick
  };

  // Keyed by a process-unique cache id, never by address: a test's fresh
  // cache reusing a freed cache's address must not inherit bypass state.
  static BypassState& bypass_state(uint64_t id) {
    static thread_local BypassState bs;
    if (bs.cache_id != id) {
      bs = BypassState{};
      bs.cache_id = id;
    }
    return bs;
  }

  static uint64_t next_cache_id() {
    static std::atomic<uint64_t> n{0};
    return n.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  struct alignas(kCacheLineSize) Entry {
    std::atomic<uint32_t> seq{0};   // seqlock: odd while a writer owns it
    std::atomic<uint32_t> meta{0};  // 0 = empty (see the bit layout above)
    std::atomic<uint64_t> kw[kWords] = {};
    std::atomic<void*> node{nullptr};
    std::atomic<uint32_t> ver{0};    // border version raw() at fill
    std::atomic<uint64_t> epoch{0};  // fill guard's pinned epoch
  };
  static_assert(sizeof(Entry) == kCacheLineSize, "one probe = one cache line");

  static size_t round_pow2(size_t v) {
    size_t p = kWays;
    while (p < v) {
      p *= 2;
    }
    return p;
  }

  // Tag = top hash byte, biased off 0 (0 marks an empty way). Purely a
  // filter: a stale or colliding tag only costs one entry-line probe (false
  // positive) or one lost refresh that the next miss retries (false negative).
  static uint8_t tag_of(uint64_t h) {
    uint8_t t = static_cast<uint8_t>(h >> 56);
    return t == 0 ? 1 : t;
  }

  static void pack_key(std::string_view key, uint64_t kw[kWords]) {
    char buf[kMaxInlineKey] = {};
    std::memcpy(buf, key.data(), key.size());
    std::memcpy(kw, buf, sizeof(buf));
  }

  // Bucket/tag/sketch hash over the packed words: four independent multiplies
  // (ILP-friendly) instead of a byte-serial stream hash — this runs on every
  // cached-tree get, hit or miss. Unrelated to key_hash64, which partitions
  // keys over workers; the two never need to agree.
  static uint64_t hash_words(const uint64_t kw[kWords], size_t len) {
    uint64_t h = kw[0] * 0x9E3779B97F4A7C15ull ^ kw[1] * 0xC2B2AE3D27D4EB4Full ^
                 kw[2] * 0x165667B19E3779F9ull ^ kw[3] * 0x27D4EB2F165667C5ull ^
                 (static_cast<uint64_t>(len) << 56);
    h ^= h >> 32;
    h *= 0xFF51AFD7ED558CCDull;
    h ^= h >> 29;
    return h;
  }

  static bool words_equal(const uint64_t a[kWords], const uint64_t b[kWords]) {
    uint64_t diff = 0;
    for (size_t i = 0; i < kWords; ++i) {
      diff |= a[i] ^ b[i];
    }
    return diff == 0;
  }

  size_t bucket_base(uint64_t h) const {
    return static_cast<size_t>(h) & mask_ & ~static_cast<size_t>(kWays - 1);
  }

  // Write the entry's fields and release it; the caller already holds the
  // seqlock at `e.seq == old even value + 1`.
  void publish(Entry& e, size_t idx, const uint64_t kw[kWords], size_t klen,
               Border* node, Version ver, int slot, uint8_t tag,
               uint32_t ref_bit, ThreadContext& ti) {
    for (size_t i = 0; i < kWords; ++i) {
      e.kw[i].store(kw[i], std::memory_order_relaxed);
    }
    e.node.store(node, std::memory_order_relaxed);
    e.ver.store(ver.raw(), std::memory_order_relaxed);
    e.epoch.store(ti.slot().active.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    e.meta.store(static_cast<uint32_t>(klen + 1) |
                     (static_cast<uint32_t>(slot) << kSlotShift) | ref_bit,
                 std::memory_order_relaxed);
    e.seq.store(e.seq.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
    tags_[idx].store(tag, std::memory_order_relaxed);
  }

  // Invalidation: clear the entry, but only if it still holds the snapshot we
  // validated (the seq CAS fails if a concurrent fill already rewrote it).
  void erase_if_unchanged(size_t idx, uint32_t seen_seq) {
    Entry& e = entries_[idx];
    uint32_t s = seen_seq;
    if (e.seq.compare_exchange_strong(s, s + 1, std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
      e.meta.store(0, std::memory_order_relaxed);
      tags_[idx].store(0, std::memory_order_relaxed);
      e.seq.store(seen_seq + 2, std::memory_order_release);
    }
  }

  // ---- epoch pin + periodic maintenance -------------------------------
  // The pin is registered lazily on the first fill so the cache binds to the
  // same EpochManager as the tree's threads (tests run private managers). If
  // every slot is taken the cache degrades gracefully: entries then expire
  // within one epoch tick, which is correct, just cold.
  // Returns the calling thread's running miss count (reused by the gate's
  // sampler so the hot path reads the counter once). The trigger compares
  // against the thread's last tick rather than testing an exact boundary:
  // bypass-skipped ops advance the miss counter without reaching fill, so
  // exact multiples of kMaintPeriod can be stepped over.
  uint64_t maybe_maintain(ThreadContext& ti, BypassState& bs) {
    uint64_t m = ti.counters().get(Counter::kCacheMisses);
    if (pin_.load(std::memory_order_acquire) == nullptr) {
      register_pin(ti);
      bs.last_maint = m;
      return m;
    }
    if (m - bs.last_maint >= kMaintPeriod) {
      bs.last_maint = m;
      rotate();
      for (size_t i = 0; i <= sketch_mask_; ++i) {
        sketch_[i].store(0, std::memory_order_relaxed);  // zero-reset window
      }
    }
    return m;
  }

  void register_pin(ThreadContext& ti) {
    std::lock_guard<std::mutex> lock(pin_mu_);
    if (pin_.load(std::memory_order_relaxed) != nullptr) {
      return;
    }
    EpochManager& mgr = ti.epochs();
    EpochSlot* slot = mgr.register_thread();
    if (slot == nullptr) {
      return;
    }
    // Yieldable: a thread blocked in unregister_thread (its limbo can't drain
    // while we gate the epoch) may force-rotate this pin instead of spinning.
    slot->yieldable.store(true, std::memory_order_release);
    slot->active.store(mgr.current_epoch(), std::memory_order_release);
    pin_mgr_.store(&mgr, std::memory_order_release);
    pin_.store(slot, std::memory_order_release);
  }

  void rotate() {
    EpochSlot* p = pin_.load(std::memory_order_acquire);
    if (p == nullptr) {
      return;
    }
    EpochManager* mgr = pin_mgr_.load(std::memory_order_acquire);
    uint64_t cur = mgr->current_epoch();
    if (p->active.load(std::memory_order_relaxed) != cur) {
      // Racing rotates may briefly store an older epoch; that only makes the
      // pin more conservative (blocks reclamation a little longer), never
      // less safe — validity is checked against reader slots, not the pin.
      p->active.store(cur, std::memory_order_release);
    }
  }

  // ---- admission sketch (TinyLFU-style) ------------------------------
  // One row of byte counters, four per cache entry, zeroed every maintenance
  // tick so stale popularity ages out. All relaxed; increments may be lost
  // under races — the sketch is a heuristic frequency filter, not a source
  // of truth. Only SAMPLED bucket-full misses reach it (hits never call
  // fill; refreshes and empty-way claims return earlier; gate_sample_shift
  // rejects the rest outright), which keeps both the sketch RMW and the
  // spurious-admission rate off the cold-get fast path.
  static constexpr size_t kSketchMinWidth = 4096;  // power of two
  static constexpr uint8_t kSketchCap = 250;

  uint32_t sketch_bump(uint64_t h) {
    std::atomic<uint8_t>& c = sketch_[(h >> 20) & sketch_mask_];
    uint8_t v = c.load(std::memory_order_relaxed);
    if (v < kSketchCap) {
      c.store(v + 1, std::memory_order_relaxed);
    }
    return static_cast<uint32_t>(v) + 1;  // estimate after this bump
  }

  Config cfg_;
  size_t mask_;
  std::unique_ptr<Entry[]> entries_;
  std::unique_ptr<std::atomic<uint8_t>[]> tags_;  // 0 = empty way
  size_t sketch_mask_;
  std::unique_ptr<std::atomic<uint8_t>[]> sketch_;
  std::atomic<unsigned> hand_{0};  // CLOCK starting-way fairness
  uint64_t id_ = next_cache_id();  // keys the per-thread bypass state
  std::atomic<EpochSlot*> pin_{nullptr};
  std::atomic<EpochManager*> pin_mgr_{nullptr};
  std::mutex pin_mu_;
};

}  // namespace masstree

#endif  // MASSTREE_CACHE_RECORD_CACHE_H_
