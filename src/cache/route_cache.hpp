// Per-node route cache: learned shortcut links for the DHT substrates.
//
// Every completed LookupInto walk teaches each node on the path a direct
// link to the key's owner; before consulting fingers/leaf sets, the walk
// probes the current node's cache, so hot keys converge toward O(1) hops
// (the standard remedy for the hotspot regimes of §IV, Thm 4.9-4.10).
//
// Correctness discipline mirrors the finger tables exactly: a cached entry
// is a generation-checked `SlotRef` into the slot slab. Before a jump the
// ring re-validates the ref (generation compare) *and* re-checks ownership
// with the same OwnsNode predicate the plain walk terminates on — a cache hit
// can therefore never produce an owner the uncached walk would not accept,
// and a vacated slot invalidates every shortcut pointing at it for free. The
// jump takes the target's address from its header, so an entry is a ref and
// its key (24 B).
//
// Layout: one direct-mapped block of `kWays` entries per slot, preallocated
// by EnsureSlots whenever the slot slab grows. Probe/Insert/Evict never
// allocate, keeping the cache-on lookup path allocation-free after warm-up
// (test_lookup_alloc). All state lives behind one unique_ptr so rings that
// embed a table stay movable; a disabled table is a null pointer and every
// operation on it is a no-op. Entry access is guarded by striped mutexes —
// cached lookups mutate the table, and the parallel replay engine may share
// one ring across worker threads.
//
// Counters (interned on first use, so a cache-off run leaves the metrics
// registry untouched): lorm.cache.route.{hits,misses,inserts,evictions}.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"

namespace lorm::cache {

inline void TickRouteHit() {
  if (!obs::MetricsEnabled()) return;
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("lorm.cache.route.hits");
  c.AddUnchecked(1);
}

inline void TickRouteMiss() {
  if (!obs::MetricsEnabled()) return;
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("lorm.cache.route.misses");
  c.AddUnchecked(1);
}

inline void TickRouteInsert() {
  if (!obs::MetricsEnabled()) return;
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("lorm.cache.route.inserts");
  c.AddUnchecked(1);
}

inline void TickRouteEviction() {
  if (!obs::MetricsEnabled()) return;
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("lorm.cache.route.evictions");
  c.AddUnchecked(1);
}

/// LinkT is the ring's generation-checked reference (SlotRef); the table
/// stores them verbatim and leaves validation to the ring, which owns the
/// slot slab the refs point into.
template <typename LinkT>
class RouteCacheTable {
 public:
  /// Direct-mapped entries per node. Power of two; sized so the working set
  /// of hot keys fits while Mercury's per-attribute hub swarm stays cheap.
  static constexpr std::size_t kWays = 16;

  void Enable() {
    if (state_ == nullptr) state_ = std::make_unique<State>();
  }
  bool enabled() const { return state_ != nullptr; }

  /// Grows the per-slot blocks to cover `slot_count` slots. Called whenever
  /// the slot slab grows; must not run concurrently with lookups (the same
  /// rule the slab itself imposes on membership changes).
  void EnsureSlots(std::size_t slot_count) {
    if (state_ == nullptr) return;
    if (slot_count * kWays > state_->entries.size()) {
      state_->entries.resize(slot_count * kWays);
    }
  }

  /// Drops everything the vacated slot had learned. Shortcuts *to* the slot
  /// need no sweep: its generation bump already invalidates them.
  void ClearNode(std::size_t slot) {
    if (state_ == nullptr) return;
    const std::size_t base = slot * kWays;
    if (base >= state_->entries.size()) return;
    std::lock_guard<std::mutex> lock(state_->StripeFor(slot));
    for (std::size_t i = 0; i < kWays; ++i) {
      state_->entries[base + i] = Entry{};
    }
  }

  /// Copies the shortcut node `slot` has for `key` into `out`. A true return
  /// only means "an entry was recorded"; the caller must validate it.
  bool Probe(std::size_t slot, std::uint64_t key, LinkT& out) {
    State& st = *state_;
    std::lock_guard<std::mutex> lock(st.StripeFor(slot));
    const Entry& e = st.entries[slot * kWays + WayOf(key)];
    if (!e.used || e.key != key) return false;
    out = e.link;
    return true;
  }

  void Insert(std::size_t slot, std::uint64_t key, const LinkT& link) {
    State& st = *state_;
    std::lock_guard<std::mutex> lock(st.StripeFor(slot));
    Entry& e = st.entries[slot * kWays + WayOf(key)];
    e.used = true;
    e.key = key;
    e.link = link;
    TickRouteInsert();
  }

  /// Drops the entry for `key` if still present (a probe returned a link
  /// that failed validation).
  void Evict(std::size_t slot, std::uint64_t key) {
    State& st = *state_;
    std::lock_guard<std::mutex> lock(st.StripeFor(slot));
    Entry& e = st.entries[slot * kWays + WayOf(key)];
    if (e.used && e.key == key) {
      e = Entry{};
      TickRouteEviction();
    }
  }

 private:
  struct Entry {
    std::uint64_t key = 0;
    bool used = false;
    LinkT link{};
  };

  static constexpr std::size_t kStripes = 64;  // power of two

  struct State {
    std::vector<Entry> entries;  // kWays consecutive entries per slot
    std::mutex stripes[kStripes];

    std::mutex& StripeFor(std::size_t slot) {
      return stripes[slot & (kStripes - 1)];
    }
  };

  static std::size_t WayOf(std::uint64_t key) {
    // Fibonacci mixing so adjacent ring keys spread over the ways.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 60);
  }

  std::unique_ptr<State> state_;  // null = disabled; pointer keeps us movable
};

static_assert(RouteCacheTable<int>::kWays == (std::size_t{1} << 4),
              "WayOf's shift must produce indices in [0, kWays)");

}  // namespace lorm::cache
