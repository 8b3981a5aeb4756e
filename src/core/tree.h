// Masstree: a trie with fanout 2^64 whose nodes are width-15 B+-trees (§4).
//
// Get/scan never write shared memory; they validate per-node version words
// (Figure 6's hand-over-hand descent, Figure 7's B-link forwarding). The
// read-side traversal exists exactly once, as the resumable LookupCursor
// state machine in core/cursor.h (states: layer-entry, descend-to-border,
// border stabilize/forward, done): get() runs one cursor to completion,
// multiget() round-robins a window of in-flight cursors and prefetches each
// cursor's next node before touching any of them (§4.8 / PALM software
// pipelining), and reach_border() — the border-location step shared by scan
// and the locked writers — is the same machine stopped at its border. The
// write side mirrors it: WriteCursor (also core/cursor.h) packages descend +
// lock-acquire as one resumable machine, locate_locked() runs one
// synchronously, and multiput()/multiremove() round-robin a window of them
// (sorted-key application, last-write-wins dedupe, per-key fallback to the
// single-put path on suffix conflicts and splits).
// scan()/scan_batch() drive the resumable ScanCursor (also core/cursor.h):
// whole-border-node snapshots chain-walked along next() pointers,
// allocation- and re-descent-free in steady state.
//
// Writers lock only the nodes they change; inserts publish through the
// permutation (§4.6.2), splits move keys strictly to the right under
// `splitting` marks (§4.6.4, Figure 5), and layer creation uses the
// UNSTABLE→LAYER two-phase publish (§4.6.3). Removed slots bump vinsert when
// reused (§4.6.5), empty nodes are frozen, unlinked, and epoch-reclaimed, and
// empty sub-layers are cleaned by deferred maintenance tasks.
//
// The tree stores opaque 64-bit values; ownership of what they point at stays
// with the caller (the kvstore layer stores Row pointers and epoch-retires
// replaced rows).

#ifndef MASSTREE_CORE_TREE_H_
#define MASSTREE_CORE_TREE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cache/record_cache.h"
#include "core/cursor.h"
#include "core/node.h"
#include "util/counters.h"

namespace masstree {

// Aggregate shape/memory statistics; gathered by a quiescent walk.
struct TreeStats {
  uint64_t border_nodes = 0;
  uint64_t interior_nodes = 0;
  uint64_t keys = 0;
  uint64_t layers = 1;           // distinct trie layers observed
  uint64_t max_depth = 0;        // B+-tree depth of layer 0
  uint64_t layer_links = 0;      // number of next_layer pointers
  uint64_t node_bytes = 0;
  uint64_t suffix_bytes = 0;     // capacity allocated to suffix bags
  uint64_t suffix_used_bytes = 0;

  double avg_border_fill(int width) const {
    return border_nodes == 0
               ? 0.0
               : static_cast<double>(keys) / (static_cast<double>(border_nodes) * width);
  }
};

template <typename C = DefaultConfig>
class BasicTree {
 public:
  using Config = C;
  using Node = NodeBase<C>;
  using Border = BorderNode<C>;
  using Interior = InteriorNode<C>;

  explicit BasicTree(ThreadContext& ti) {
    root_.store(Border::make(ti, /*is_root=*/true), std::memory_order_release);
  }

  BasicTree(const BasicTree&) = delete;
  BasicTree& operator=(const BasicTree&) = delete;

  // Frees every node. Requires quiescence (no concurrent operations).
  ~BasicTree() { destroy_subtree(root_.load(std::memory_order_acquire)); }

  // Optional hot-key record cache consulted by get()/multiget() before
  // descending (cache/record_cache.h; nullptr = disabled). The cache stores
  // (border, slot, version) triples produced by completed cursors, so lookup
  // and fill both happen under the same EpochGuard that ran the cursor.
  void set_record_cache(RecordCache<C>* cache) { cache_ = cache; }
  RecordCache<C>* record_cache() const { return cache_; }

  // --------------------------------------------------------------------
  // get(k) — Figures 6/7, via one LookupCursor run to completion.
  bool get(std::string_view k, uint64_t* value, ThreadContext& ti) const {
    EpochGuard guard(ti.slot());
    uint64_t chash = 0;
    if (cache_ != nullptr && cache_->lookup(k, value, ti, &chash)) {
      return true;
    }
    LookupCursor<C> cur(root_, k);
    if (cur.run(&ti.counters()) != LookupCursor<C>::Status::kFound) {
      return false;
    }
    // chash == 0 means the lookup never probed (bypass-skipped or long key):
    // the fill would decline too, so skip the call on the cold fast path.
    if (cache_ != nullptr && chash != 0) {
      cache_->fill(k, cur.hit_border(), cur.hit_version(), cur.hit_slot(), ti, &chash);
    }
    *value = cur.value();
    return true;
  }

  // --------------------------------------------------------------------
  // multiget — software-pipelined batched lookup (§4.8 / PALM).
  //
  // Round-robins up to kMultigetWindow in-flight LookupCursors: each round
  // first issues prefetch() for every cursor's next node, then steps each
  // cursor once, so the batch overlaps its DRAM fetches and a batch of B gets
  // costs ~max-depth DRAM latencies instead of B×depth. One epoch guard spans
  // the batch; completed slots immediately refill from the remaining
  // requests. Results land in the requests themselves (value is untouched for
  // missing keys). Returns the number of keys found.
  struct GetRequest {
    std::string_view key;
    uint64_t value = 0;
    bool found = false;
  };

  static constexpr size_t kMultigetWindow = 16;

  size_t multiget(std::span<GetRequest> reqs, ThreadContext& ti) const {
    if (reqs.empty()) {
      return 0;
    }
    using Cursor = LookupCursor<C>;
    EpochGuard guard(ti.slot());
    ThreadCounters* ctrs = &ti.counters();
    ctrs->inc(Counter::kMultigetBatches);
    const size_t nslots = reqs.size() < kMultigetWindow ? reqs.size() : kMultigetWindow;
    std::optional<Cursor> cur[kMultigetWindow];
    size_t req_of[kMultigetWindow];
    size_t next_req = 0;
    size_t live = 0;
    size_t nfound = 0;
    uint64_t retry_sum = 0;
    // Picks the next request that actually needs a cursor: record-cache hits
    // are resolved inline (same guard) and never occupy a window slot.
    auto next_pending = [&]() -> size_t {
      while (next_req < reqs.size()) {
        size_t r = next_req++;
        if (cache_ != nullptr && cache_->lookup(reqs[r].key, &reqs[r].value, ti)) {
          reqs[r].found = true;
          ++nfound;
          continue;
        }
        return r;
      }
      return reqs.size();
    };
    for (size_t i = 0; i < nslots; ++i) {
      size_t r = next_pending();
      if (r == reqs.size()) {
        break;
      }
      cur[i].emplace(root_, reqs[r].key);
      req_of[i] = r;
      ++live;
    }
    while (live > 0) {
      // Issue every in-flight cursor's prefetch before touching any node so
      // the whole window's fetches are outstanding at once.
      for (size_t i = 0; i < nslots; ++i) {
        if (cur[i]) {
          cur[i]->prefetch();
        }
      }
      for (size_t i = 0; i < nslots; ++i) {
        if (!cur[i]) {
          continue;
        }
        // Null counters: batch-path retries are reported via
        // kMultigetRetry below, keeping the kGet* rates pure point-get.
        typename Cursor::Status st = cur[i]->step(nullptr);
        if (st == Cursor::Status::kInProgress) {
          continue;
        }
        GetRequest& rq = reqs[req_of[i]];
        rq.found = st == Cursor::Status::kFound;
        if (rq.found) {
          rq.value = cur[i]->value();
          ++nfound;
          if (cache_ != nullptr) {
            cache_->fill(rq.key, cur[i]->hit_border(), cur[i]->hit_version(),
                         cur[i]->hit_slot(), ti);
          }
        }
        retry_sum += cur[i]->retries();
        size_t r = next_pending();
        if (r != reqs.size()) {
          cur[i].emplace(root_, reqs[r].key);
          req_of[i] = r;
        } else {
          cur[i].reset();
          --live;
        }
      }
    }
    if (retry_sum != 0) {
      ctrs->inc(Counter::kMultigetRetry, retry_sum);
    }
    return nfound;
  }

  // --------------------------------------------------------------------
  // multiput / multiremove — the write-side twin of multiget (§4.8 / PALM).
  //
  // Round-robins up to kMultigetWindow in-flight WriteCursors (core/cursor.h:
  // descend + lock-acquire as one resumable machine): each round issues every
  // cursor's prefetch() before touching any node, then steps each once. When
  // a cursor reaches its locked border the write is applied immediately and
  // the lock released before any other cursor is stepped, so at most one
  // border lock is held at a time — batched writers cannot invert lock order.
  // Requests are applied in sorted-key order (duplicate-key runs dedupe to
  // last-write-wins; see below), and the hard cases — suffix conflict
  // (make_layer) and full-node split — fall back per-key through the existing
  // single-put path (Counter::kMultiputRetries).
  //
  // Duplicate-key semantics: only the LAST request for a key (in span order)
  // touches the tree; earlier duplicates are never applied, so a batch
  // mutates and (at the kvstore layer) logs exactly one record per surviving
  // write. Response flags are still as-if-sequential: every request's
  // inserted/found is derived by replaying the key's request run over the
  // pre-batch existence the survivor observed. The one documented divergence
  // from sequential puts is value composition across overwritten duplicates:
  // a later put's payload is NOT layered over an earlier duplicate's within
  // one batch (last write wins wholesale), and a put surviving over an
  // earlier duplicate remove applies against the pre-batch value (the remove
  // is never executed). Final tree state and durable log state stay
  // consistent with each other either way — exactly one record per
  // surviving write, so recovery replays to the same state the batch left
  // in memory.
  //
  // Returns the number of requests that modified the tree, counted
  // as-if-sequential (every put + every remove whose as-if-sequential
  // `found` is true) — exactly what applying the span one request at a
  // time would have returned, even when duplicate runs dedupe to fewer
  // physical applications. One epoch guard spans the batch.
  struct PutRequest {
    std::string_view key;
    uint64_t value = 0;     // put: the value to store (ignored by *_with)
    bool remove = false;    // true: remove the key instead of putting
    // Results (as-if-sequential; see the duplicate-key note above):
    bool inserted = false;  // put: key was newly inserted
    bool found = false;     // key existed beforehand (put: replaced; remove: removed)
    uint64_t old_value = 0; // replaced/removed value (surviving requests only)
  };

  size_t multiput(std::span<PutRequest> reqs, ThreadContext& ti) {
    return multiput_with(
        reqs, [&reqs](size_t r, bool, uint64_t) { return reqs[r].value; },
        [](size_t, uint64_t) {}, ti);
  }

  size_t multiremove(std::span<PutRequest> reqs, ThreadContext& ti) {
    for (PutRequest& rq : reqs) {
      rq.remove = true;
    }
    return multiput(reqs, ti);
  }

  // Transform flavor, for callers that build values under the border lock
  // (the kvstore layer's copy-on-write rows, §4.7): make_value(i, found, old)
  // -> new_value runs under the lock for surviving puts, on_remove(i, old)
  // under the lock for surviving removes that found their key — so no
  // concurrent same-key operation can interleave between read and write, and
  // neither callback ever runs for a deduplicated (overwritten) request.
  template <typename MakeValue, typename OnRemove>
  size_t multiput_with(std::span<PutRequest> reqs, MakeValue&& make_value,
                       OnRemove&& on_remove, ThreadContext& ti) {
    if (reqs.empty()) {
      return 0;
    }
    EpochGuard guard(ti.slot());
    ThreadCounters* ctrs = &ti.counters();
    ctrs->inc(Counter::kMultiputBatches);
    const size_t n = reqs.size();

    // Application order: request indices sorted by (key, index). Sorted-key
    // application gives duplicate detection for free and makes adjacent
    // requests hit the same border; ties keep span order so the last request
    // for a key is the run's last element (the survivor).
    thread_local std::vector<uint32_t> order_tls;
    std::vector<uint32_t>& order = order_tls;
    order.resize(n);
    for (size_t i = 0; i < n; ++i) {
      order[i] = static_cast<uint32_t>(i);
    }
    std::sort(order.begin(), order.end(), [&reqs](uint32_t a, uint32_t b) {
      int c = reqs[a].key.compare(reqs[b].key);
      return c != 0 ? c < 0 : a < b;
    });

    size_t next = 0;  // cursor into order[]
    auto next_surviving = [&]() -> size_t {
      while (next < n) {
        size_t i = next++;
        if (i + 1 < n && reqs[order[i]].key == reqs[order[i + 1]].key) {
          continue;  // a later request overwrites this key (last-write-wins)
        }
        return i;
      }
      return n;
    };

    struct Slot {
      Key key;
      WriteCursor<C> cur;
      uint32_t req;
      Slot(Node* root, std::string_view k, uint32_t r)
          : key(k), cur(root, key.slice()), req(r) {}
    };
    const size_t nslots = n < kMultigetWindow ? n : kMultigetWindow;
    std::optional<Slot> sl[kMultigetWindow];
    size_t live = 0;
    size_t napplied = 0;
    Node* treeroot = root_.load(std::memory_order_acquire);
    for (size_t i = 0; i < nslots; ++i) {
      size_t oi = next_surviving();
      if (oi == n) {
        break;
      }
      sl[i].emplace(treeroot, reqs[order[oi]].key, order[oi]);
      ++live;
    }
    while (live > 0) {
      // Announce every in-flight cursor's next cache line before touching
      // any node, so the window's DRAM fetches are all outstanding at once.
      for (size_t i = 0; i < nslots; ++i) {
        if (sl[i]) {
          sl[i]->cur.prefetch();
        }
      }
      for (size_t i = 0; i < nslots; ++i) {
        if (!sl[i]) {
          continue;
        }
        Slot& s = *sl[i];
        typename WriteCursor<C>::Status st = s.cur.step(ctrs);
        if (st == WriteCursor<C>::Status::kInProgress) {
          continue;
        }
        if (st == WriteCursor<C>::Status::kDeadLayer) {
          // The whole layer vanished: restart this key from layer 0.
          ctrs->inc(Counter::kPutRetryFromRoot);
          ctrs->inc(Counter::kMultiputRetries);
          s.key.unshift_all();
          s.cur.reset(root_.load(std::memory_order_acquire), s.key.slice());
          continue;
        }
        // kLocked: apply under the held lock (released before any other
        // cursor is stepped), or continue the descent into a sub-layer.
        Node* subroot = nullptr;
        if (!multiput_apply(s.cur.locked(), s.key, reqs[s.req], s.req,
                            make_value, on_remove, &subroot, &napplied, ctrs,
                            ti)) {
          s.key.shift();
          s.cur.reset(subroot, s.key.slice());
          continue;
        }
        size_t oi = next_surviving();
        if (oi != n) {
          sl[i].emplace(treeroot, reqs[order[oi]].key, order[oi]);
        } else {
          sl[i].reset();
          --live;
        }
      }
    }

    // Last-write-wins flag reconciliation: deduplicated requests never
    // touched the tree, so replay each duplicate run over the pre-batch
    // existence its survivor observed (for both put and remove survivors,
    // `found` is exactly "key existed before the batch").
    for (size_t i = 0; i < n;) {
      size_t j = i + 1;
      while (j < n && reqs[order[i]].key == reqs[order[j]].key) {
        ++j;
      }
      if (j - i > 1) {
        bool exists = reqs[order[j - 1]].found;
        for (size_t k = i; k < j; ++k) {
          PutRequest& rq = reqs[order[k]];
          if (k != j - 1) {
            rq.old_value = 0;
          }
          if (rq.remove) {
            rq.found = exists;
            rq.inserted = false;
            exists = false;
          } else {
            rq.inserted = !exists;
            rq.found = exists;
            exists = true;
          }
        }
      }
      i = j;
    }
    // Report the as-if-sequential modification count: duplicate runs applied
    // fewer physical writes than their request count (napplied tracks those),
    // but callers see the same answer sequential application would give.
    (void)napplied;
    size_t as_if_applied = 0;
    for (const PutRequest& rq : reqs) {
      as_if_applied += rq.remove ? (rq.found ? 1u : 0u) : 1u;
    }
    return as_if_applied;
  }

  // --------------------------------------------------------------------
  // put(k, v). Returns true if a new key was inserted, false if an existing
  // key's value was replaced; the previous value (for the caller to retire)
  // lands in *old_value when updating.
  bool insert(std::string_view k, uint64_t value, uint64_t* old_value, ThreadContext& ti) {
    EpochGuard guard(ti.slot());
    Key key(k);
    Node* root = root_.load(std::memory_order_acquire);
    for (;;) {
      Border* n = locate_locked(root, key.slice(), ti);
      if (n == nullptr) {
        ti.counters().inc(Counter::kPutRetryFromRoot);
        key.unshift_all();
        root = root_.load(std::memory_order_acquire);
        continue;
      }
      uint64_t slice = key.slice();
      int ord = search_ord(key);
      Permuter perm(n->raw_permutation().load(std::memory_order_relaxed));
      int pos;
      int slot = n->find(perm, slice, ord, &pos);
      if (slot >= 0) {
        uint8_t kx = n->keylenx(slot);
        assert(!keylenx_is_unstable(kx));
        if (keylenx_is_layer(kx)) {
          root = descend_layer_locked(n, slot);
          n->version().unlock();
          key.shift();
          continue;
        }
        if (keylenx_has_suffix(kx) && !n->suffixes()->equals(slot, key.suffix())) {
          // Two long keys share this slice: push the existing one down a
          // layer, then continue inserting there (§4.6.3).
          root = make_layer(n, slot, ti);
          n->version().unlock();
          key.shift();
          continue;
        }
        // Exact match: in-place value update with a single aligned write
        // (§4.6.1); no version bump, readers never retry.
        if (old_value != nullptr) {
          *old_value = n->lv(slot);
        }
        n->set_lv(slot, value);
        n->version().unlock();
        return false;
      }
      if (perm.size() < Border::kWidth) {
        insert_into_border(n, pos, key, value, ti);
        n->version().unlock();
        return true;
      }
      split_insert(n, key, value, ti);  // consumes the lock
      return true;
    }
  }

  // --------------------------------------------------------------------
  // Atomic read-modify-write put: fn(found, old_value) -> new_value runs
  // under the border-node lock, so no concurrent put to the same key can
  // interleave between the read and the write. Used by the kvstore layer to
  // build copy-on-write rows (§4.7's atomic multi-column puts). Returns true
  // if the key was newly inserted; on update the replaced value is stored in
  // *old_value for the caller to epoch-retire.
  template <typename Fn>
  bool insert_transform(std::string_view k, Fn&& fn, uint64_t* old_value, ThreadContext& ti) {
    EpochGuard guard(ti.slot());
    Key key(k);
    Node* root = root_.load(std::memory_order_acquire);
    for (;;) {
      Border* n = locate_locked(root, key.slice(), ti);
      if (n == nullptr) {
        ti.counters().inc(Counter::kPutRetryFromRoot);
        key.unshift_all();
        root = root_.load(std::memory_order_acquire);
        continue;
      }
      uint64_t slice = key.slice();
      int ord = search_ord(key);
      Permuter perm(n->raw_permutation().load(std::memory_order_relaxed));
      int pos;
      int slot = n->find(perm, slice, ord, &pos);
      if (slot >= 0) {
        uint8_t kx = n->keylenx(slot);
        assert(!keylenx_is_unstable(kx));
        if (keylenx_is_layer(kx)) {
          root = descend_layer_locked(n, slot);
          n->version().unlock();
          key.shift();
          continue;
        }
        if (keylenx_has_suffix(kx) && !n->suffixes()->equals(slot, key.suffix())) {
          root = make_layer(n, slot, ti);
          n->version().unlock();
          key.shift();
          continue;
        }
        uint64_t old = n->lv(slot);
        if (old_value != nullptr) {
          *old_value = old;
        }
        n->set_lv(slot, fn(true, old));
        n->version().unlock();
        return false;
      }
      uint64_t value = fn(false, 0);
      if (perm.size() < Border::kWidth) {
        insert_into_border(n, pos, key, value, ti);
        n->version().unlock();
        return true;
      }
      split_insert(n, key, value, ti);
      return true;
    }
  }

  // --------------------------------------------------------------------
  // remove(k). Returns true and the removed value if the key was present.
  bool remove(std::string_view k, uint64_t* old_value, ThreadContext& ti) {
    return remove_with(
        k,
        [old_value](uint64_t old) {
          if (old_value != nullptr) {
            *old_value = old;
          }
        },
        ti);
  }

  // remove with a hook that runs under the border-node lock just before the
  // key is unpublished. The kvstore layer uses it to assign the §5 value
  // version while same-key operations are still serialized.
  template <typename Fn>
  bool remove_with(std::string_view k, Fn&& on_remove, ThreadContext& ti) {
    EpochGuard guard(ti.slot());
    Key key(k);
    Node* root = root_.load(std::memory_order_acquire);
    for (;;) {
      Border* n = locate_locked(root, key.slice(), ti);
      if (n == nullptr) {
        key.unshift_all();
        root = root_.load(std::memory_order_acquire);
        continue;
      }
      uint64_t slice = key.slice();
      int ord = search_ord(key);
      Permuter perm(n->raw_permutation().load(std::memory_order_relaxed));
      int pos;
      int slot = n->find(perm, slice, ord, &pos);
      if (slot < 0) {
        n->version().unlock();
        return false;
      }
      uint8_t kx = n->keylenx(slot);
      if (keylenx_is_layer(kx)) {
        root = descend_layer_locked(n, slot);
        n->version().unlock();
        key.shift();
        continue;
      }
      if (keylenx_has_suffix(kx) && !n->suffixes()->equals(slot, key.suffix())) {
        n->version().unlock();
        return false;
      }
      on_remove(n->lv(slot));
      // Removal just unpublishes the slot; the key/value bytes stay for
      // concurrent readers, and vinsert is bumped if the slot is reused
      // (§4.6.5). Mark inserting so unlock() bumps vinsert NOW as well:
      // in-flight readers racing the permutation store re-validate, and any
      // record-cache entry pointing at this slot fails changed_since()
      // instead of serving the unpublished value.
      n->version().mark_inserting();
      perm.remove(pos);
      n->set_permutation(perm);
      if (n->nremoved_ < 255) {
        ++n->nremoved_;
      }
      if (perm.size() == 0) {
        handle_empty_border(n, key, ti);  // consumes the lock
      } else {
        n->version().unlock();
      }
      return true;
    }
  }

  // --------------------------------------------------------------------
  // getrange / scan (§3): calls emit(key, value) for up to `limit` pairs with
  // key >= first, in lexicographic order, until emit returns false. Pairs
  // from one border node form an atomic snapshot; the scan as a whole is not
  // atomic with respect to concurrent inserts/removes.
  //
  // Thin driver over ScanCursor (core/cursor.h): one border-node snapshot per
  // batch, chain-walked via next() pointers, allocation- and descent-free in
  // steady state.
  template <typename F>
  size_t scan(std::string_view first, size_t limit, F&& emit, ThreadContext& ti) const {
    return scan_drive(first, limit, emit, ti, /*prefetch=*/false);
  }

  // scan(), software-pipelined: issues the prefetch for the next border node
  // (and its suffix StringBag) before emitting the current snapshot's pairs,
  // so the chain walk's next DRAM fetch overlaps with emission (§4.8's
  // overlap-the-fetches argument applied to the range-read path).
  template <typename F>
  size_t scan_batch(std::string_view first, size_t limit, F&& emit, ThreadContext& ti) const {
    return scan_drive(first, limit, emit, ti, /*prefetch=*/true);
  }

  // The cursor itself, for callers that manage epochs/batches directly (the
  // kvstore layer streams column extraction from batches and detaches between
  // epoch guards; see ScanCursor's driving-protocol comment).
  ScanCursor<C> scan_cursor(std::string_view first) const {
    return ScanCursor<C>(root_, first);
  }

  // Re-aims a long-lived cursor at this tree, keeping its warm buffers.
  void reset_scan_cursor(ScanCursor<C>& cur, std::string_view first) const {
    cur.reset(root_, first);
  }

  // Pre-cursor scan implementation, kept verbatim as the ablation baseline
  // for bench/sec3_scan (re-locates the border for every frame re-entry and
  // heap-allocates per-entry suffix copies; the cursor exists to beat it).
  template <typename F>
  size_t scan_legacy(std::string_view first, size_t limit, F&& emit, ThreadContext& ti) const {
    if (limit == 0) {
      return 0;
    }
    EpochGuard guard(ti.slot());

    struct Frame {
      Node* root;
      std::string prefix;  // key bytes consumed by enclosing layers
      uint64_t cslice;     // cursor: next key must be >= (cslice, cord, csuf)
      int cord;            // 0..9, or 10 = "past every key with cslice"
      std::string csuf;
      bool skip_equal;
    };
    auto make_frame = [](Node* root, std::string prefix, std::string_view start,
                         bool skip_equal) {
      Frame f;
      f.root = root;
      f.prefix = std::move(prefix);
      f.cslice = make_slice(start);
      f.cord = start.size() > kSliceBytes ? 9 : static_cast<int>(start.size());
      if (start.size() > kSliceBytes) {
        f.csuf.assign(start.substr(kSliceBytes));
      }
      f.skip_equal = skip_equal;
      return f;
    };

    std::vector<Frame> stack;
    stack.push_back(
        make_frame(root_.load(std::memory_order_acquire), std::string(), first, false));
    size_t emitted = 0;
    std::string keybuf;

    while (!stack.empty()) {
      // Note: frames are re-entered after sub-layer scans; every visit
      // re-locates the border node for the frame's cursor.
      Border* n;
      VersionValue v;
      {
        Frame& f = stack.back();
        Node* root = f.root;
        if (!reach_border(root, f.cslice, &n, &v)) {
          if (stack.size() == 1) {
            f.root = root_.load(std::memory_order_acquire);
            continue;
          }
          stack.pop_back();  // the whole layer vanished: nothing left in it
          continue;
        }
        f.root = root;
      }

      bool descended = false;
      while (!descended) {
        // Snapshot one border node.
        struct Entry {
          uint64_t slice;
          uint8_t kx;
          uint64_t lv;
          std::string suf;
        };
        Entry ents[Border::kWidth];
        int cnt = 0;
        bool unstable = false;
        Permuter perm = n->permutation();
        Border* nx = n->next();
        for (int i = 0; i < perm.size(); ++i) {
          int s = perm.get(i);
          Entry& e = ents[cnt++];
          e.slice = n->slice(s);
          e.kx = n->keylenx(s);
          e.lv = n->lv(s);
          if (keylenx_has_suffix(e.kx)) {
            StringBag* bag = n->suffixes();
            if (bag != nullptr) {
              e.suf.assign(bag->get(s));
            }
          } else if (keylenx_is_unstable(e.kx)) {
            unstable = true;
          }
        }
        if (n->version().changed_since(v) || v.deleted()) {
          Frame& f = stack.back();
          Node* root = f.root;
          if (!reach_border(root, f.cslice, &n, &v)) {
            if (stack.size() > 1) {
              stack.pop_back();
              descended = true;  // leave node loop; outer loop re-dispatches
              break;
            }
            f.root = root_.load(std::memory_order_acquire);
            continue;
          }
          f.root = root;
          continue;
        }
        if (unstable) {
          spin_pause();
          v = n->version().stable();
          continue;
        }

        // Emit the validated snapshot.
        for (int i = 0; i < cnt && !descended; ++i) {
          Entry& e = ents[i];
          Frame& f = stack.back();
          int eo = keylenx_ord(e.kx);
          if (e.slice < f.cslice || (e.slice == f.cslice && eo < f.cord)) {
            continue;
          }
          if (e.slice == f.cslice && eo == f.cord) {
            if (eo < 9) {
              if (f.skip_equal) {
                continue;
              }
            } else if (keylenx_has_suffix(e.kx)) {
              int c = e.suf.compare(f.csuf);
              if (c < 0 || (c == 0 && f.skip_equal)) {
                continue;
              }
            }
          }
          if (keylenx_is_layer(e.kx)) {
            // Recurse into the sub-layer; on return, resume past this slice.
            std::string substart;
            bool subskip = false;
            if (e.slice == f.cslice && f.cord == 9) {
              substart = f.csuf;
              subskip = f.skip_equal;
            }
            std::string subprefix = f.prefix + slice_to_string(e.slice, kSliceBytes);
            f.cslice = e.slice;
            f.cord = 10;
            f.csuf.clear();
            Node* subroot = reinterpret_cast<Node*>(e.lv);
            stack.push_back(make_frame(subroot, std::move(subprefix), substart, subskip));
            descended = true;
            break;
          }
          keybuf.assign(f.prefix);
          keybuf.append(slice_to_string(e.slice, eo < 9 ? eo : kSliceBytes));
          if (keylenx_has_suffix(e.kx)) {
            keybuf.append(e.suf);
          }
          bool keep_going = emit(std::string_view(keybuf), e.lv);
          ++emitted;
          f.cslice = e.slice;
          f.cord = eo;
          f.csuf = keylenx_has_suffix(e.kx) ? e.suf : std::string();
          f.skip_equal = true;
          if (!keep_going || emitted >= limit) {
            return emitted;
          }
        }
        if (descended) {
          break;
        }
        if (nx == nullptr) {
          stack.pop_back();
          break;
        }
        n = nx;
        v = n->version().stable();
      }
    }
    return emitted;
  }

  // --------------------------------------------------------------------
  // Deferred cleanup of empty sub-layer trees (§4.6.5: "Epoch-based
  // reclamation tasks are scheduled as needed to clean up empty ...
  // layer-h trees"). Returns the number of tasks processed.
  size_t run_maintenance(ThreadContext& ti) {
    if (cache_ != nullptr) {
      // Rotate the record cache's epoch pin so reclamation behind it drains
      // on the maintenance cadence even when no misses are driving fills.
      cache_->maintain();
    }
    std::vector<std::string> tasks;
    {
      std::lock_guard<std::mutex> lock(gc_mu_);
      tasks.swap(gc_tasks_);
    }
    for (const std::string& prefix : tasks) {
      remove_empty_layer(prefix, ti);
      ti.counters().inc(Counter::kMaintenanceTasks);
    }
    return tasks.size();
  }

  size_t pending_maintenance() const {
    std::lock_guard<std::mutex> lock(gc_mu_);
    return gc_tasks_.size();
  }

  // Quiescent value walk (teardown helper for owners of boxed values).
  template <typename F>
  void for_each_value(F&& f) const {
    walk_values(root_.load(std::memory_order_acquire), f);
  }

  // Quiescent shape statistics.
  TreeStats collect_stats() const {
    TreeStats st;
    collect_subtree(root_.load(std::memory_order_acquire), 1, 1, &st);
    return st;
  }

  Node* root_for_testing() const { return root_.load(std::memory_order_acquire); }

  // Legacy batched-lookup support (§4.8 / PALM): issue the prefetches along
  // one key's root-to-border path without version validation, so a batch of
  // gets overlaps its DRAM fetches. Harmless if racy — it only prefetches.
  // Superseded by multiget()'s cursor pipeline, which interleaves validated
  // descents instead of walking every path twice; kept for the §4.8 ablation
  // and for callers that batch at a distance from the gets themselves.
  void prefetch_for(std::string_view k) const {
    if constexpr (!C::kPrefetch) {
      return;
    }
    Key key(k);
    Node* n = root_.load(std::memory_order_acquire);
    int hops = 0;
    while (n != nullptr && ++hops < 16) {
      prefetch_node(n);
      VersionValue v = n->version().load();
      if (v.is_border() || v.deleted()) {
        if (v.is_border() && key.has_suffix()) {
          // Without this, a long key's suffix compare after the descent still
          // eats a cold DRAM miss on the suffix bag.
          const StringBag* bag = n->as_border()->suffixes();
          if (bag != nullptr) {
            prefetch_object(bag, LookupCursor<C>::kSuffixPrefetchBytes);
          }
        }
        return;
      }
      const Interior* in = n->as_interior();
      n = in->child(in->child_index(key.slice()));
    }
  }

 private:
  static int search_ord(const Key& key) {
    return key.has_suffix() ? 9 : static_cast<int>(key.length_in_slice());
  }

  // Shared scan()/scan_batch() driver: one epoch guard for the whole range,
  // one ScanCursor run batch by batch. `prefetch` turns on the next-border
  // lookahead that overlaps the chain walk's DRAM fetch with emission.
  //
  // The cursor is a per-thread resident, reset per call, so repeated scans
  // reuse warm buffers and a short scan performs zero heap allocations;
  // nested scans (an emit callback scanning again) fall back to a
  // stack-local cursor rather than corrupting the resident one.
  template <typename F>
  size_t scan_drive(std::string_view first, size_t limit, F& emit, ThreadContext& ti,
                    bool prefetch) const {
    if (limit == 0) {
      return 0;
    }
    EpochGuard guard(ti.slot());
    thread_local ScanCursor<C> resident;
    thread_local bool resident_busy = false;
    if (!resident_busy) {
      resident_busy = true;
      struct Lease {
        bool* busy;
        ~Lease() { *busy = false; }
      } lease{&resident_busy};
      resident.reset(root_, first);
      return drive_cursor(resident, limit, emit, ti, prefetch);
    }
    ScanCursor<C> cur(root_, first);
    return drive_cursor(cur, limit, emit, ti, prefetch);
  }

  template <typename F>
  static size_t drive_cursor(ScanCursor<C>& cur, size_t limit, F& emit, ThreadContext& ti,
                             bool prefetch) {
    size_t emitted = 0;
    for (;;) {
      size_t n = cur.next_batch(&ti.counters(), limit - emitted);
      if (n == 0) {
        return emitted;
      }
      if (prefetch) {
        cur.prefetch_pending();
      }
      for (size_t i = 0; i < n; ++i) {
        bool keep_going = emit(cur.key(i), cur.value(i));
        ++emitted;
        if (!keep_going || emitted >= limit) {
          return emitted;
        }
      }
    }
  }

  // Follow parent pointers from a (possibly stale) layer root to the current
  // root of that layer's B+-tree. Quiescent walks need this because stored
  // next_layer pointers are only fixed lazily (§4.6.4).
  static Node* true_layer_root(Node* n) {
    while (n != nullptr && !n->version().load().is_root()) {
      Node* p = n->parent();
      if (p == nullptr) {
        break;
      }
      n = p;
    }
    return n;
  }

  static void prefetch_node(const Node* n) {
    if constexpr (C::kPrefetch) {
      prefetch_object(n, sizeof(Border));
    }
  }

  // ---------------- descent (Figure 6) ----------------
  //
  // Finds the border node responsible for `slice` in the layer whose root is
  // reachable from `root` (in-out: updated to the true root so retries skip
  // forwarding chains). Returns false if the walk dead-ends on a retired
  // layer, in which case the caller restarts from layer 0. This is a
  // border-location LookupCursor run synchronously — the same descent the
  // read path pipelines one step at a time.
  static bool reach_border(Node*& root, uint64_t slice, Border** out, VersionValue* vout) {
    LookupCursor<C> cur(root, slice);
    if (cur.run(nullptr) == LookupCursor<C>::Status::kDeadLayer) {
      return false;
    }
    root = cur.layer_root();
    *out = cur.border();
    *vout = cur.border_version();
    return true;
  }

  // Writer-side locate: returns the locked border node responsible for
  // `slice`, following splits right under lock. Returns null if the layer is
  // dead (caller restarts from the top); `root` is updated like reach_border.
  // This is a locked-writer WriteCursor run synchronously — the same
  // descend-and-acquire machine multiput() pipelines one step at a time.
  Border* locate_locked(Node*& root, uint64_t slice, ThreadContext& ti) const {
    WriteCursor<C> cur(root, slice);
    if (cur.run(&ti.counters()) == WriteCursor<C>::Status::kDeadLayer) {
      return nullptr;
    }
    root = cur.layer_root();
    return cur.locked();
  }

  // Figure 4 lockedparent: lock n's parent, revalidating that it is still
  // the parent afterwards.
  static Interior* locked_parent(Node* n) {
    for (;;) {
      Node* p = n->parent();
      if (p == nullptr) {
        return nullptr;
      }
      p->version().lock();
      if (n->parent() == p) {
        assert(!p->is_border());
        return p->as_interior();
      }
      p->version().unlock();
    }
  }

  // ---------------- multiput apply (§4.8 write pipeline) ----------------

  // Apply one batched write to the locked border `n` responsible for `key`'s
  // current slice. Returns true when the request completed (the lock was
  // released or consumed); false when the descent continues into a sub-layer
  // whose root is stored in *subroot (lock released, key not yet shifted).
  // The simple cases — exact-match update, in-node insert, remove — run
  // inline with exactly the single-put protocol; suffix conflicts and
  // full-node splits fall back per-key through insert_transform.
  template <typename MakeValue, typename OnRemove>
  bool multiput_apply(Border* n, const Key& key, PutRequest& rq, uint32_t ridx,
                      MakeValue& make_value, OnRemove& on_remove,
                      Node** subroot, size_t* napplied, ThreadCounters* ctrs,
                      ThreadContext& ti) {
    uint64_t slice = key.slice();
    int ord = search_ord(key);
    Permuter perm(n->raw_permutation().load(std::memory_order_relaxed));
    int pos;
    int slot = n->find(perm, slice, ord, &pos);
    if (slot >= 0) {
      uint8_t kx = n->keylenx(slot);
      assert(!keylenx_is_unstable(kx));
      if (keylenx_is_layer(kx)) {
        *subroot = descend_layer_locked(n, slot);
        n->version().unlock();
        return false;
      }
      if (keylenx_has_suffix(kx) && !n->suffixes()->equals(slot, key.suffix())) {
        n->version().unlock();
        if (rq.remove) {
          rq.found = false;
          return true;
        }
        // Two long keys share this slice: single-put fallback runs
        // make_layer and re-descends (§4.6.3).
        multiput_fallback(rq, ridx, make_value, napplied, ctrs, ti);
        return true;
      }
      uint64_t old = n->lv(slot);
      if (rq.remove) {
        on_remove(static_cast<size_t>(ridx), old);
        rq.found = true;
        rq.old_value = old;
        // See remove_with(): unpublish + vinsert bump under the same lock.
        n->version().mark_inserting();
        perm.remove(pos);
        n->set_permutation(perm);
        if (n->nremoved_ < 255) {
          ++n->nremoved_;
        }
        if (perm.size() == 0) {
          handle_empty_border(n, key, ti);  // consumes the lock
        } else {
          n->version().unlock();
        }
        ++*napplied;
        return true;
      }
      rq.found = true;
      rq.inserted = false;
      rq.old_value = old;
      n->set_lv(slot, make_value(static_cast<size_t>(ridx), true, old));
      n->version().unlock();
      ++*napplied;
      return true;
    }
    if (rq.remove) {
      n->version().unlock();
      rq.found = false;
      return true;
    }
    if (perm.size() < Border::kWidth) {
      uint64_t value = make_value(static_cast<size_t>(ridx), false, 0);
      insert_into_border(n, pos, key, value, ti);
      n->version().unlock();
      rq.inserted = true;
      rq.found = false;
      ++*napplied;
      return true;
    }
    // Full node: single-put fallback runs split_insert.
    n->version().unlock();
    multiput_fallback(rq, ridx, make_value, napplied, ctrs, ti);
    return true;
  }

  template <typename MakeValue>
  void multiput_fallback(PutRequest& rq, uint32_t ridx, MakeValue& make_value,
                         size_t* napplied, ThreadCounters* ctrs,
                         ThreadContext& ti) {
    ctrs->inc(Counter::kMultiputRetries);
    uint64_t old = 0;
    rq.inserted = insert_transform(
        rq.key,
        [&](bool found, uint64_t o) {
          return make_value(static_cast<size_t>(ridx), found, o);
        },
        &old, ti);
    rq.found = !rq.inserted;
    rq.old_value = rq.found ? old : 0;
    ++*napplied;
  }

  // ---------------- border insert helpers ----------------

  void insert_into_border(Border* n, int pos, const Key& key, uint64_t value,
                          ThreadContext& ti) {
    Permuter perm(n->raw_permutation().load(std::memory_order_relaxed));
    if (n->nremoved_ > 0) {
      // The slot may have held a removed key some reader still remembers;
      // force those readers to retry (§4.6.5).
      n->version().mark_inserting();
      ti.counters().inc(Counter::kSlotReuse);
    }
    int slot = perm.back();
    n->set_slice(slot, key.slice());
    if (key.has_suffix()) {
      assign_suffix(n, slot, key.suffix(), ti);
      n->set_keylenx(slot, kKeylenxSuffix);
    } else {
      n->set_keylenx(slot, static_cast<uint8_t>(key.length_in_slice()));
    }
    n->set_lv(slot, value);
    release_fence();  // slot contents before permutation publish (§4.6.2)
    perm.insert_from_back(pos);
    n->set_permutation(perm);
  }

  void assign_suffix(Border* n, int slot, std::string_view suf, ThreadContext& ti) {
    StringBag* bag = n->raw_suffixes().load(std::memory_order_relaxed);
    if (bag == nullptr) {
      // Adaptive start: size to the first suffix plus a little slack rather
      // than reserving worst-case space for 15 suffixes (§4.2). The fixed
      // alternative (kFixedSuffixBytes) reserves worst-case space up front.
      size_t cap = C::kFixedSuffixBytes != 0 ? C::kFixedSuffixBytes
                                             : suf.size() + 3 * kSliceBytes;
      if (cap < suf.size()) {
        cap = suf.size();
      }
      bag = StringBag::make(ti, Border::kWidth, cap);
      bool ok = bag->assign(slot, suf);
      (void)ok;
      assert(ok);
      n->raw_suffixes().store(bag, std::memory_order_release);
      return;
    }
    if (bag->assign(slot, suf)) {
      return;
    }
    // Grow: copy live suffixes into a bigger bag, publish, retire the old.
    uint32_t live = 0;
    Permuter perm(n->raw_permutation().load(std::memory_order_relaxed));
    for (int i = 0; i < perm.size(); ++i) {
      int s = perm.get(i);
      if (s != slot && keylenx_has_suffix(n->keylenx(s))) {
        live |= 1u << s;
      }
    }
    StringBag* nb = StringBag::make_copy(ti, *bag, live, suf.size() + bag->capacity());
    bool ok = nb->assign(slot, suf);
    (void)ok;
    assert(ok);
    n->raw_suffixes().store(nb, std::memory_order_release);
    ti.retire(bag);
  }

  // Read a layer link under the parent border's lock, repairing a stale root
  // pointer in passing (§4.6.4: roots stored in border nodes "are updated
  // lazily during later operations"). The store is a single aligned write;
  // concurrent readers see either pointer, and both lead to the true root.
  static Node* descend_layer_locked(Border* n, int slot) {
    Node* sub = n->layer(slot);
    Node* root = true_layer_root(sub);
    if (root != sub && root != nullptr) {
      n->set_lv(slot, reinterpret_cast<uint64_t>(root));
      return root;
    }
    return sub;
  }

  // §4.6.3: the slot holds a suffixed key that conflicts with a new key on
  // this slice. Push the existing key into a fresh layer and publish the
  // link. Returns the new layer root; n stays locked.
  Node* make_layer(Border* n, int slot, ThreadContext& ti) {
    ti.counters().inc(Counter::kLayerCreated);
    // The slot changes meaning (value -> layer pointer). The UNSTABLE state
    // already forces racing readers to retry, but mark inserting too so
    // unlock() bumps vinsert: a record-cache entry validated against the
    // pre-layer version must fail changed_since() rather than reinterpret the
    // layer pointer as the old value.
    n->version().mark_inserting();
    std::string_view rest = n->suffixes()->get(slot);
    uint64_t val = n->lv(slot);
    Border* nl = Border::make(ti, /*is_root=*/true);
    Key k2(rest);
    nl->set_slice(0, k2.slice());
    if (k2.has_suffix()) {
      StringBag* bag = StringBag::make(ti, Border::kWidth, k2.suffix().size() + kSliceBytes);
      bool ok = bag->assign(0, k2.suffix());
      (void)ok;
      assert(ok);
      nl->raw_suffixes().store(bag, std::memory_order_relaxed);
      nl->set_keylenx(0, kKeylenxSuffix);
    } else {
      nl->set_keylenx(0, static_cast<uint8_t>(k2.length_in_slice()));
    }
    nl->set_lv(0, val);
    nl->set_permutation(Permuter::make_sorted(1));
    // Three ordered writes make the transition safe for lock-free readers:
    // UNSTABLE (readers retry) -> pointer -> LAYER (§4.6.3).
    n->set_keylenx(slot, kKeylenxUnstableLayer);
    release_fence();
    n->set_lv(slot, reinterpret_cast<uint64_t>(static_cast<Node*>(nl)));
    release_fence();
    n->set_keylenx(slot, kKeylenxLayer);
    return nl;
  }

  // ---------------- split (Figure 5) ----------------

  struct VirtualEntry {
    uint64_t slice;
    int ord;
    int slot;  // -1 for the key being inserted
  };

  void split_insert(Border* n, const Key& key, uint64_t value, ThreadContext& ti) {
    ti.counters().inc(Counter::kPutSplit);
    constexpr int W = Border::kWidth;
    Permuter perm(n->raw_permutation().load(std::memory_order_relaxed));
    assert(perm.size() == W);
    uint64_t slice = key.slice();
    int ord = search_ord(key);

    // Virtual sorted array of the W existing keys plus the new one.
    VirtualEntry ents[W + 1];
    int pos;
    int match = n->find(perm, slice, ord, &pos);
    (void)match;
    assert(match < 0);
    for (int i = 0, j = 0; i <= W; ++i) {
      if (i == pos) {
        ents[i] = VirtualEntry{slice, ord, -1};
      } else {
        int s = perm.get(j++);
        ents[i] = VirtualEntry{n->slice(s), keylenx_ord(n->keylenx(s)), s};
      }
    }

    // Split point: the right sibling receives ents[m..W]. Prefer the middle,
    // but never separate keys sharing a slice (at most 10 keys share one, so
    // a boundary always exists); if the insert is a rightmost append with no
    // next sibling, move only the new key (§4.3's sequential optimization) —
    // unless the new key shares its slice with the node's last entry: the
    // sibling's lowkey is a slice, so a same-slice straddle would route gets
    // for the kept entry to the new node and miss it.
    int m = -1;
    if (pos == W && n->next() == nullptr && ents[W - 1].slice != ents[W].slice) {
      m = W;
    } else {
      int mid = (W + 1) / 2;
      for (int delta = 0; delta <= W && m < 0; ++delta) {
        int hi = mid + delta, lo = mid - delta;
        if (hi >= 1 && hi <= W && ents[hi - 1].slice != ents[hi].slice) {
          m = hi;
        } else if (lo >= 1 && lo <= W && ents[lo - 1].slice != ents[lo].slice) {
          m = lo;
        }
      }
      assert(m >= 1);
    }

    n->version().mark_splitting();
    Border* n2 = Border::make(ti, false);
    n2->version().assign_locked_from(n->version().load());
    n2->version().set_root(false);
    n2->set_lowkey(ents[m].slice);

    // Pre-size n2's suffix bag for every suffix that will move: growth during
    // the copy would consult n2's (not yet initialized) permutation for the
    // live-slot mask and discard earlier copies.
    {
      size_t suffix_bytes = 0;
      for (int i = m; i <= W; ++i) {
        if (ents[i].slot < 0) {
          if (key.has_suffix()) {
            suffix_bytes += key.suffix().size();
          }
        } else if (keylenx_has_suffix(n->keylenx(ents[i].slot))) {
          suffix_bytes += n->suffix(ents[i].slot).size();
        }
      }
      if (suffix_bytes > 0) {
        size_t cap = C::kFixedSuffixBytes > suffix_bytes ? C::kFixedSuffixBytes
                                                         : suffix_bytes;
        n2->raw_suffixes().store(StringBag::make(ti, Border::kWidth, cap),
                                 std::memory_order_relaxed);
      }
    }

    // Copy the moved entries (and possibly the new key) into n2.
    for (int i = m; i <= W; ++i) {
      write_entry(n2, i - m, ents[i], n, key, value, ti);
    }
    n2->set_permutation(Permuter::make_sorted(W + 1 - m));

    // Rebuild n's permutation over the kept slots; slots vacated by the move
    // become free (and count as reusable).
    {
      bool kept_slot[W] = {};
      int order[W];
      int kc = 0;
      bool new_left = false;
      int new_pos_in_left = -1;
      for (int i = 0; i < m; ++i) {
        if (ents[i].slot >= 0) {
          order[kc++] = ents[i].slot;
          kept_slot[ents[i].slot] = true;
        } else {
          new_left = true;
          new_pos_in_left = kc;
          order[kc++] = -1;  // patched below
        }
      }
      if (new_left) {
        int fs = -1;
        for (int s = 0; s < W; ++s) {
          if (!kept_slot[s]) {
            fs = s;
            break;
          }
        }
        assert(fs >= 0);
        kept_slot[fs] = true;
        order[new_pos_in_left] = fs;
        n->set_slice(fs, slice);
        if (key.has_suffix()) {
          assign_suffix(n, fs, key.suffix(), ti);
          n->set_keylenx(fs, kKeylenxSuffix);
        } else {
          n->set_keylenx(fs, static_cast<uint8_t>(key.length_in_slice()));
        }
        n->set_lv(fs, value);
      }
      uint64_t px = static_cast<uint64_t>(kc);
      int nib = 1;
      for (int i = 0; i < kc; ++i) {
        px |= static_cast<uint64_t>(order[i]) << (4 * nib++);
      }
      for (int s = 0; s < W; ++s) {
        if (!kept_slot[s]) {
          px |= static_cast<uint64_t>(s) << (4 * nib++);
        }
      }
      release_fence();
      n->set_permutation(Permuter(px));
      int vacated = W - (kc - (new_left ? 1 : 0));
      n->nremoved_ = static_cast<uint8_t>(
          n->nremoved_ + vacated > 255 ? 255 : n->nremoved_ + vacated);
    }

    // Link n2 into the border list. n and n2 are locked; the old next's prev
    // pointer is protected by its left sibling's lock, which we hold (§4.5).
    Border* old_next = n->next();
    n2->set_next(old_next);
    n2->set_prev(n);
    release_fence();
    n->set_next(n2);
    if (old_next != nullptr) {
      old_next->set_prev(n2);
    }

    ascend_after_split(n, n2, ents[m].slice, ti);
  }

  void write_entry(Border* dst, int idx, const VirtualEntry& e, Border* src, const Key& key,
                   uint64_t value, ThreadContext& ti) {
    if (e.slot < 0) {
      dst->set_slice(idx, key.slice());
      if (key.has_suffix()) {
        assign_suffix(dst, idx, key.suffix(), ti);
        dst->set_keylenx(idx, kKeylenxSuffix);
      } else {
        dst->set_keylenx(idx, static_cast<uint8_t>(key.length_in_slice()));
      }
      dst->set_lv(idx, value);
      return;
    }
    dst->set_slice(idx, src->slice(e.slot));
    uint8_t kx = src->keylenx(e.slot);
    assert(!keylenx_is_unstable(kx));
    if (keylenx_has_suffix(kx)) {
      assign_suffix(dst, idx, src->suffix(e.slot), ti);
    }
    dst->set_keylenx(idx, kx);
    dst->set_lv(idx, src->lv(e.slot));
  }

  // Figure 5's ascend loop: insert (sep, right) above left, splitting
  // interior nodes as needed, hand-over-hand locked.
  void ascend_after_split(Node* left, Node* right, uint64_t sep, ThreadContext& ti) {
    for (;;) {
      Interior* p = locked_parent(left);
      if (p == nullptr) {
        // left was this layer's root: grow a new interior root.
        Interior* r = Interior::make(ti, /*is_root=*/true);
        r->set_nkeys(1);
        r->set_key(0, sep);
        r->set_child(0, left);
        r->set_child(1, right);
        left->set_parent(r);
        right->set_parent(r);
        left->version().set_root(false);
        // Layer-0 roots are updated immediately; sub-layer links are fixed
        // lazily by later descents (§4.6.4).
        Node* expected = left;
        root_.compare_exchange_strong(expected, r, std::memory_order_acq_rel);
        left->version().unlock();
        right->version().unlock();
        return;
      }
      if (p->nkeys() < Interior::kWidth) {
        p->version().mark_inserting();
        int ci = p->find_child(left);
        assert(ci >= 0);
        int nk = p->nkeys();
        for (int i = nk; i > ci; --i) {
          p->set_key(i, p->key(i - 1));
        }
        for (int i = nk + 1; i > ci + 1; --i) {
          p->set_child(i, p->child(i - 1));
        }
        p->set_key(ci, sep);
        p->set_child(ci + 1, right);
        right->set_parent(p);
        p->set_nkeys(nk + 1);
        left->version().unlock();
        right->version().unlock();
        p->version().unlock();
        return;
      }
      // Parent full: split it and keep climbing.
      constexpr int IW = Interior::kWidth;
      p->version().mark_splitting();
      left->version().unlock();
      Interior* p2 = Interior::make(ti, false);
      p2->version().assign_locked_from(p->version().load());
      p2->version().set_root(false);

      uint64_t keys[IW + 1];
      Node* children[IW + 2];
      int ci = p->find_child(left);
      assert(ci >= 0);
      {
        int cpos = 0;
        for (int i = 0; i <= IW; ++i) {
          children[cpos++] = p->child(i);
          if (i == ci) {
            children[cpos++] = right;
          }
        }
        int kpos = 0;
        for (int i = 0; i < IW; ++i) {
          if (i == ci) {
            keys[kpos++] = sep;
          }
          keys[kpos++] = p->key(i);
        }
        if (ci == IW) {
          keys[kpos++] = sep;
        }
      }
      int mm = (IW + 1) / 2;
      uint64_t upkey = keys[mm];
      int rn = IW - mm;
      p2->set_nkeys(rn);
      for (int i = 0; i < rn; ++i) {
        p2->set_key(i, keys[mm + 1 + i]);
      }
      for (int i = 0; i <= rn; ++i) {
        Node* c = children[mm + 1 + i];
        p2->set_child(i, c);
        c->set_parent(p2);  // no child lock needed (§4.5)
      }
      p->set_nkeys(mm);
      for (int i = 0; i < mm; ++i) {
        p->set_key(i, keys[i]);
      }
      for (int i = 0; i <= mm; ++i) {
        Node* c = children[i];
        p->set_child(i, c);
        c->set_parent(p);
      }
      right->version().unlock();  // right is linked into p or p2 now
      left = p;
      right = p2;
      sep = upkey;
    }
  }

  // ---------------- remove machinery (§4.6.5) ----------------

  // Called with n locked and empty. Consumes the lock.
  void handle_empty_border(Border* n, const Key& key, ThreadContext& ti) {
    VersionValue v = n->version().load();
    if (v.is_root()) {
      // The initial node of a tree is never deleted while the tree exists;
      // empty sub-layer trees are cleaned up by scheduled tasks.
      if (key.layer() > 0) {
        schedule_layer_gc(std::string(key.full().substr(0, key.offset())));
      }
      n->version().unlock();
      return;
    }
    if (n->prev() == nullptr) {
      // Leftmost border of its tree: keep (it anchors lowkey = -inf).
      n->version().unlock();
      return;
    }
    ti.counters().inc(Counter::kNodeDeleted);
    n->version().mark_deleted();
    n->version().unlock();  // frozen: no writer will touch it again
    unlink_border(n);
    std::vector<Node*> retired;
    remove_from_parent(n, ti, &retired);
    StringBag* bag = n->raw_suffixes().load(std::memory_order_relaxed);
    if (bag != nullptr) {
      ti.retire(bag);
    }
    ti.retire(n);
    for (Node* dead : retired) {
      ti.retire(dead);
    }
  }

  // Unlink a frozen border node from the doubly linked list by locking its
  // predecessor (whose lock protects both p->next and, transitively, the
  // successor's prev) and revalidating.
  static void unlink_border(Border* m) {
    for (;;) {
      Border* p = m->prev();
      assert(p != nullptr);  // the leftmost node is never deleted
      p->version().lock();
      if (p->version().load().deleted() || p->next() != m) {
        // p is being removed itself, or split/removal rewired the list;
        // m->prev will be updated by whoever is responsible. Retry.
        p->version().unlock();
        spin_pause();
        continue;
      }
      Border* nx = m->next();  // stable: m is frozen
      p->set_next(nx);
      if (nx != nullptr) {
        nx->set_prev(p);
      }
      p->version().unlock();
      return;
    }
  }

  // Remove a frozen child from its parent, cascading when interiors empty
  // out. Emptied interiors are appended to *retired; the caller epoch-retires
  // them only after they are unreachable.
  void remove_from_parent(Node* child, ThreadContext& ti, std::vector<Node*>* retired) {
    Node* node = child;
    for (;;) {
      Interior* p = locked_parent(node);
      assert(p != nullptr);  // roots are never deleted this way
      int ci = p->find_child(node);
      assert(ci >= 0);
      int nk = p->nkeys();
      if (nk == 0) {
        // node was p's only child: p empties out; cascade upward.
        ti.counters().inc(Counter::kNodeDeleted);
        p->version().mark_deleted();
        p->version().unlock();
        retired->push_back(p);
        node = p;
        continue;
      }
      p->version().mark_inserting();
      if (ci == 0) {
        for (int i = 0; i < nk - 1; ++i) {
          p->set_key(i, p->key(i + 1));
        }
        for (int i = 0; i <= nk - 1; ++i) {
          p->set_child(i, p->child(i + 1));
        }
      } else {
        for (int i = ci - 1; i < nk - 1; ++i) {
          p->set_key(i, p->key(i + 1));
        }
        for (int i = ci; i <= nk - 1; ++i) {
          p->set_child(i, p->child(i + 1));
        }
      }
      p->set_nkeys(nk - 1);
      p->version().unlock();
      return;
    }
  }

  void schedule_layer_gc(std::string prefix) {
    std::lock_guard<std::mutex> lock(gc_mu_);
    gc_tasks_.push_back(std::move(prefix));
  }

  // Execute one deferred empty-layer removal: descend to the border slot
  // holding the layer link, verify the sub-layer is still an empty root
  // border, and unpublish it. Locks parent-then-child across the two layers,
  // an ordering used only here (normal operations lock one layer at a time).
  void remove_empty_layer(const std::string& prefix, ThreadContext& ti) {
    assert(prefix.size() % kSliceBytes == 0 && !prefix.empty());
    EpochGuard guard(ti.slot());
    size_t target_off = prefix.size() - kSliceBytes;
    Key key(prefix);
    Node* root = root_.load(std::memory_order_acquire);
    int attempts = 0;
    for (;;) {
      if (++attempts > 64) {
        return;  // contended; the empty layer is harmless, try again later
      }
      Border* n = locate_locked(root, key.slice(), ti);
      if (n == nullptr) {
        key.unshift_all();
        root = root_.load(std::memory_order_acquire);
        continue;
      }
      Permuter perm(n->raw_permutation().load(std::memory_order_relaxed));
      int pos;
      int slot = n->find(perm, key.slice(), 9, &pos);
      if (slot < 0 || !keylenx_is_layer(n->keylenx(slot))) {
        n->version().unlock();
        return;  // link gone or in flux; nothing to do
      }
      Node* sub = n->layer(slot);
      if (key.offset() < target_off) {
        n->version().unlock();
        root = sub;
        key.shift();
        continue;
      }
      sub->version().lock();
      bool empty = false;
      if (sub->is_border() && !sub->version().load().deleted()) {
        Permuter sp(sub->as_border()->raw_permutation().load(std::memory_order_relaxed));
        empty = sp.size() == 0;
      }
      if (!empty) {
        sub->version().unlock();
        n->version().unlock();
        return;  // revived by a concurrent insert
      }
      ti.counters().inc(Counter::kNodeDeleted);
      sub->version().mark_deleted();
      sub->version().unlock();
      perm.remove(pos);
      n->set_permutation(perm);
      if (n->nremoved_ < 255) {
        ++n->nremoved_;
      }
      if (perm.size() == 0) {
        handle_empty_border(n, key, ti);
      } else {
        n->version().unlock();
      }
      StringBag* bag = sub->as_border()->raw_suffixes().load(std::memory_order_relaxed);
      if (bag != nullptr) {
        ti.retire(bag);
      }
      ti.retire(sub);
      return;
    }
  }

  // ---------------- teardown & statistics ----------------

  static void destroy_subtree(Node* n) {
    if (n == nullptr) {
      return;
    }
    if (n->is_border()) {
      Border* b = n->as_border();
      Permuter perm(b->raw_permutation().load(std::memory_order_relaxed));
      for (int i = 0; i < perm.size(); ++i) {
        int s = perm.get(i);
        if (keylenx_is_layer(b->keylenx(s))) {
          destroy_subtree(true_layer_root(b->layer(s)));
        }
      }
      StringBag* bag = b->raw_suffixes().load(std::memory_order_relaxed);
      if (bag != nullptr) {
        Arena::deallocate(bag);
      }
      Arena::deallocate(b);
      return;
    }
    Interior* in = n->as_interior();
    for (int i = 0; i <= in->nkeys(); ++i) {
      destroy_subtree(in->child(i));
    }
    Arena::deallocate(in);
  }

  template <typename F>
  static void walk_values(Node* n, F& f) {
    if (n == nullptr) {
      return;
    }
    if (n->is_border()) {
      Border* b = n->as_border();
      Permuter perm(b->raw_permutation().load(std::memory_order_relaxed));
      for (int i = 0; i < perm.size(); ++i) {
        int s = perm.get(i);
        if (keylenx_is_layer(b->keylenx(s))) {
          walk_values(true_layer_root(b->layer(s)), f);
        } else if (!keylenx_is_unstable(b->keylenx(s))) {
          f(b->lv(s));
        }
      }
      return;
    }
    Interior* in = n->as_interior();
    for (int i = 0; i <= in->nkeys(); ++i) {
      walk_values(in->child(i), f);
    }
  }

  static void collect_subtree(Node* n, uint64_t depth, uint64_t layer, TreeStats* st) {
    if (n == nullptr) {
      return;
    }
    if (st->max_depth < depth && layer == 1) {
      st->max_depth = depth;
    }
    if (st->layers < layer) {
      st->layers = layer;
    }
    if (n->is_border()) {
      Border* b = n->as_border();
      ++st->border_nodes;
      st->node_bytes += sizeof(Border);
      Permuter perm(b->raw_permutation().load(std::memory_order_relaxed));
      for (int i = 0; i < perm.size(); ++i) {
        int s = perm.get(i);
        if (keylenx_is_layer(b->keylenx(s))) {
          ++st->layer_links;
          collect_subtree(true_layer_root(b->layer(s)), 1, layer + 1, st);
        } else {
          ++st->keys;
        }
      }
      StringBag* bag = b->raw_suffixes().load(std::memory_order_relaxed);
      if (bag != nullptr) {
        st->suffix_bytes += bag->capacity();
        st->suffix_used_bytes += bag->used_bytes();
      }
      return;
    }
    Interior* in = n->as_interior();
    ++st->interior_nodes;
    st->node_bytes += sizeof(Interior);
    for (int i = 0; i <= in->nkeys(); ++i) {
      collect_subtree(in->child(i), depth + 1, layer, st);
    }
  }

  std::atomic<Node*> root_;
  RecordCache<C>* cache_ = nullptr;  // not owned; see set_record_cache()
  mutable std::mutex gc_mu_;
  std::vector<std::string> gc_tasks_;
};

// The concurrent tree the paper names Masstree.
using Tree = BasicTree<DefaultConfig>;
// The single-core variant (§6.4, §6.6).
using SequentialTree = BasicTree<SequentialConfig>;

}  // namespace masstree

#endif  // MASSTREE_CORE_TREE_H_
