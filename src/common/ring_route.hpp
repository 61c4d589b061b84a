// Routing core shared by the three overlays (Chord, Cycloid, single-hop).
//
// The rings differ in their routing tables and in how one step picks the
// next hop. Everything around the step is the same, and `RingRoute` holds it
// once, as a CRTP base with no virtual calls:
//
//  * the node store: the `SlotSlab` (slot_slab.hpp), with slot seating and
//    vacating that also size and clear the route cache's per-slot blocks;
//  * the lookup. `LookupInto` is LookupBegin, LookupStep until the walk is
//    done, LookupFinish; `Lookup` does the same into a fresh result. The
//    resumable Begin / Step / Finish triple lets `RouteLanes` (below)
//    interleave several walks, and since LookupInto is a plain loop over
//    it, results, route-cache order, counters and traces are the same
//    either way;
//  * Begin's preamble (result reset, origin -> slot, trace timestamp) and
//    Finish: route-cache teaching, the `<prefix>.lookup.*` metrics and the
//    trace record;
//  * the route-cache shortcut a step tries before its tables, and the
//    dead-link accounting around a step;
//  * the maintenance meter and the ring's one membership observer.
//
// A ring supplies, as members the base (a friend) calls:
//
//   kMetricPrefix        name prefix of its lookup metrics ("chord", ...)
//   NormalizeKey(key)    the key folded into the identifier space
//   BeginWalk(st)        the hop cap st.max_hops, and any walk fields of its
//                        own state
//   StepOnce(st, r)      one hop, shortcut or termination; false once the
//                        walk completed
//   OwnsNode(node, key)  the walk's termination predicate
//   CacheKey(key)        the route-cache key; the default is the key itself
//
// and keeps LookupPrefetch, its tables and its maintenance. A ring whose
// members keep successor links (Chord, single-hop) also has
// SuccessorSlot(slot), its one successor rule: Successor(addr) and the
// range walks both step through it. Each ring instantiates the base in its
// own .cpp (and declares it extern in its header), so the lookup loop is
// compiled next to the step it inlines.
//
// `RouteLanes` is the one scheduler for lookups in flight together: the
// query executor's root lookups (discovery/query_executor.hpp), the batch
// engine (harness/batch_lookup.hpp) and block placement
// (DirectoryService::AdvertiseAll) all run it. It keeps up to `width`
// walks in lanes, steps them round-robin and, after each step, prefetches
// what that walk's next step reads (LookupPrefetch), so one walk's cache
// misses overlap the others' steps. Walks that do not touch the route cache
// only read the rings, so interleaving them changes no result; lookups
// retire in submission order, so traces and counters come out in that order.
//
// The ring-interval tests every ring's ownership rule and routing step use
// (InIntervalOC, InIntervalOO) live here too, once for the three rings.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/route_cache.hpp"
#include "common/error.hpp"
#include "common/maintenance.hpp"
#include "common/slot_slab.hpp"
#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lorm {

/// True iff `x` lies in the half-open ring interval (lo, hi]: order
/// comparisons only, wrapping past the top of the space.
inline bool InIntervalOC(std::uint64_t x, std::uint64_t lo, std::uint64_t hi) {
  if (lo == hi) return true;  // degenerate interval covers the whole ring
  if (lo < hi) return x > lo && x <= hi;
  return x > lo || x <= hi;  // wrapped
}

/// True iff `x` lies in the open ring interval (lo, hi).
inline bool InIntervalOO(std::uint64_t x, std::uint64_t lo, std::uint64_t hi) {
  if (lo == hi) return x != lo;  // whole ring minus the endpoint
  if (lo < hi) return x > lo && x < hi;
  return x > lo || x < hi;  // wrapped
}

/// Result of routing a lookup through an overlay keyed by `Id`.
template <typename Id>
struct RouteResult {
  bool ok = false;
  Id key{};                     ///< the looked-up key, normalized
  NodeAddr owner = kNoNode;     ///< node whose sector contains the key
  HopCount hops = 0;            ///< inter-node hops from origin to owner
  std::vector<NodeAddr> path;   ///< origin first, owner last
  /// Hops taken through route-cache shortcuts (0 with the cache off).
  std::uint64_t cache_hits = 0;
};

/// One in-flight walk. Plain value state, reusable across lookups; the bound
/// result must outlive the walk (Begin .. Finish).
template <typename Id>
struct RouteState {
  RouteResult<Id>* out = nullptr;  ///< bound result, valid Begin..Finish
  SlabSlot cur = kNoSlabSlot;      ///< slab position of the walk head
  std::size_t max_hops = 0;        ///< routing-failure cap for this walk
  bool done = true;                ///< no more steps (out->ok says how)
  /// Dead links this walk detected (exact even when walks interleave:
  /// accumulated per step, not diffed across the whole walk).
  std::uint64_t dead_skips = 0;
  std::uint64_t start_ns = 0;      ///< trace timestamp (0 when tracing off)
  /// When the walk completed (set with start_ns only), so a walk finished
  /// later than it completed still reports its own duration.
  std::uint64_t end_ns = 0;
};

/// `NodeT` is the ring's slab node (slot_slab.hpp's requirements); `State`
/// extends RouteState<Id> where a ring's walk carries more.
template <typename Derived, typename NodeT, typename Observer,
          typename Alloc = std::allocator<NodeT>,
          typename State = RouteState<decltype(NodeT::id)>>
class RingRoute {
 public:
  using Id = decltype(NodeT::id);
  /// Index into the node slot slab. Public so resumable lookup state can
  /// carry slab positions across steps.
  using Slot = SlabSlot;
  static constexpr Slot kNoSlot = kNoSlabSlot;
  using LookupResult = RouteResult<Id>;
  using LookupState = State;
  /// What SetObserver registers.
  using ObserverType = Observer;

  std::size_t size() const { return slab_.size(); }
  bool Contains(NodeAddr addr) const { return slab_.Contains(addr); }
  Id IdOf(NodeAddr addr) const { return slab_.MustGet(addr).id; }
  /// A member's slab slot. A successor walk (discovery/ring_walk.hpp) looks
  /// its start up once and then steps by slot: IdAt, AddrAt and the ring's
  /// SuccessorSlot read the slab with no address probe.
  Slot SlotOf(NodeAddr addr) const { return slab_.MustFind(addr); }
  Id IdAt(Slot s) const { return slab_[s].id; }
  NodeAddr AddrAt(Slot s) const { return slab_[s].addr; }
  /// True iff `key` is in the node's sector, judged from its own state.
  bool Owns(NodeAddr addr, Id key) const {
    return self().OwnsNode(slab_.MustGet(addr), key);
  }

  // ---- Routing ----------------------------------------------------------

  /// Routes from `origin` to the owner of `key` using only per-node state.
  LookupResult Lookup(Id key, NodeAddr origin) const {
    LookupResult r;
    LookupInto(key, origin, r);
    return r;
  }

  /// Same walk, but reuses `out` (notably its path buffer): after warm-up
  /// the steady-state query path performs no heap allocation.
  void LookupInto(Id key, NodeAddr origin, LookupResult& out) const;

  /// Binds `out` to `st` and positions the walk at `origin`. A missing
  /// origin completes the walk immediately (ok stays false).
  void LookupBegin(Id key, NodeAddr origin, LookupResult& out,
                   State& st) const;

  /// Advances the walk by at most one hop. Returns true while the walk has
  /// more steps; false once it completed (owner found, routing dead end, or
  /// hop cap exceeded). Calling it on a completed walk is a no-op.
  bool LookupStep(State& st) const;

  /// Completes the walk: teaches the route cache (on success, cache on) and
  /// reports to the metrics and trace layer. Exactly once per Begin; the
  /// trace's duration runs from Begin to the step that completed the walk.
  void LookupFinish(State& st) const;

  /// Warms the membership-table probe line for a LookupBegin(.., origin, ..)
  /// issued later: the batch engine calls this one lookup ahead so the next
  /// request's origin->slot resolution overlaps the walks in flight. Pure
  /// prefetch, no observable effect.
  void PrefetchOrigin(NodeAddr origin) const { slab_.PrefetchFind(origin); }

  /// True when lookups learn and take route-cache shortcuts.
  bool RouteCacheEnabled() const { return route_cache_.enabled(); }

  // ---- Maintenance ------------------------------------------------------

  /// Registers the ring's membership observer; nullptr removes it.
  void SetObserver(Observer* obs) {
    LORM_CHECK_MSG(obs == nullptr || observer_ == nullptr,
                   "the ring already has a membership observer");
    observer_ = obs;
  }

  const MaintenanceStats& maintenance() const { return maintenance_; }
  void ResetMaintenanceStats() { maintenance_ = {}; }

 protected:
  using Node = NodeT;
  using Link = SlotLink<Id>;

  /// `unknown_node` is the slab's invariant message; `route_cache` enables
  /// the learned shortcuts (cache/route_cache.hpp).
  RingRoute(const char* unknown_node, bool route_cache)
      : slab_(unknown_node) {
    if (route_cache) route_cache_.Enable();
  }

  /// Seats a member in the slab and sizes its route-cache block.
  Slot AllocateSlot(NodeAddr addr, Id id) {
    const Slot s = slab_.Allocate(addr, id);
    route_cache_.EnsureSlots(slab_.slot_count());
    return s;
  }
  /// Vacates the slot and drops what its occupant had learned. The
  /// generation bump already invalidates shortcuts *to* the slot.
  void ReleaseSlot(Slot s) {
    slab_.Release(s);
    route_cache_.ClearNode(s);
  }

  /// Marks the walk completed and, while tracing, stamps when.
  static void MarkDone(State& st) {
    st.done = true;
    if (st.start_ns != 0) st.end_ns = obs::MonotonicNowNs();
  }
  /// Ends the walk at its head, which owns the key.
  bool Arrive(const State& st, LookupResult& r) const {
    r.owner = slab_[st.cur].addr;
    r.ok = true;
    return false;
  }
  /// Moves the walk head to `next` (address `addr`) and bills the hop.
  static void Hop(State& st, LookupResult& r, Slot next, NodeAddr addr) {
    st.cur = next;
    ++r.hops;
    r.path.push_back(addr);
  }
  /// Takes the route-cache shortcut the walk head learned for the key, if
  /// it still leads to a live owner. Returns true when it hopped. Every
  /// step asks, so the cache-off answer stays an inline null check.
  bool Shortcut(State& st, LookupResult& r) const {
    return route_cache_.enabled() && ProbeShortcut(st, r);
  }

  /// The route-cache key of a normalized key: the key itself. A ring whose
  /// ids are not integers hides this with its own.
  template <typename K = Id>
  static std::uint64_t CacheKey(const K& key) {
    return key;
  }

  SlotSlab<Node, Alloc> slab_;
  Observer* observer_ = nullptr;
  mutable MaintenanceStats maintenance_;  // mutable: routing is const
  /// Learned shortcuts; mutable: lookups teach it.
  mutable cache::RouteCacheTable<SlotRef> route_cache_;

 private:
  const Derived& self() const { return static_cast<const Derived&>(*this); }
  /// Shortcut with the cache on.
  bool ProbeShortcut(State& st, LookupResult& r) const;
};

template <typename D, typename N, typename O, typename A, typename S>
void RingRoute<D, N, O, A, S>::LookupInto(Id key, NodeAddr origin,
                                          LookupResult& out) const {
  S st;
  LookupBegin(key, origin, out, st);
  while (self().LookupStep(st)) {
  }
  LookupFinish(st);
}

template <typename D, typename N, typename O, typename A, typename S>
void RingRoute<D, N, O, A, S>::LookupBegin(Id key, NodeAddr origin,
                                           LookupResult& r, S& st) const {
  st.out = &r;
  st.dead_skips = 0;
  // Timestamp taken only while a trace is active on this thread, so the
  // off-state cost stays the TLS null check.
  st.start_ns = obs::TracingActive() ? obs::MonotonicNowNs() : 0;
  r.ok = false;
  r.key = self().NormalizeKey(key);
  r.owner = kNoNode;
  r.hops = 0;
  r.cache_hits = 0;
  r.path.clear();
  st.cur = slab_.Find(origin);
  self().BeginWalk(st);
  st.done = false;
  if (st.cur == kNoSlot) {
    MarkDone(st);
  } else {
    r.path.push_back(origin);
  }
}

template <typename D, typename N, typename O, typename A, typename S>
bool RingRoute<D, N, O, A, S>::LookupStep(S& st) const {
  if (st.done) return false;
  // Attribute dead-link detections to this walk step by step: exact even
  // when RouteLanes interleaves walks over the shared counter.
  const std::uint64_t dead_before = maintenance_.dead_links_skipped;
  const bool more = self().StepOnce(st, *st.out);
  st.dead_skips += maintenance_.dead_links_skipped - dead_before;
  if (!more) MarkDone(st);
  return more;
}

template <typename D, typename N, typename O, typename A, typename S>
bool RingRoute<D, N, O, A, S>::ProbeShortcut(S& st, LookupResult& r) const {
  const std::uint64_t key = self().CacheKey(r.key);
  SlotRef shortcut;
  if (route_cache_.Probe(st.cur, key, shortcut)) {
    // Same liveness discipline as a routing-table link, plus an ownership
    // re-check with the walk's own termination predicate: a stale or wrong
    // shortcut can never route to an owner the plain walk would reject.
    if (shortcut.slot != st.cur && slab_.Current(shortcut) &&
        self().OwnsNode(slab_[shortcut.slot], r.key)) {
      cache::TickRouteHit();
      ++r.cache_hits;
      Hop(st, r, shortcut.slot, slab_[shortcut.slot].addr);
      return true;
    }
    route_cache_.Evict(st.cur, key);
  }
  cache::TickRouteMiss();
  return false;
}

template <typename D, typename N, typename O, typename A, typename S>
void RingRoute<D, N, O, A, S>::LookupFinish(S& st) const {
  const LookupResult& r = *st.out;
  if (r.ok && route_cache_.enabled() && r.hops > 0) {
    // Teach every node on the path a direct link to the owner.
    const std::uint64_t key = self().CacheKey(r.key);
    const SlotRef owner_ref = slab_.MakeRef(st.cur);
    for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
      const Slot s = slab_.Find(r.path[i]);
      if (s != kNoSlot && s != st.cur) route_cache_.Insert(s, key, owner_ref);
    }
  }
  // Report to the observability layer on every exit path. Costs one flag
  // load + one thread-local null check when obs is off; records nothing
  // else, so routing behavior and results are untouched. The handles are
  // per ring type: each instantiation has its own statics and prefix.
  if (obs::MetricsEnabled()) {
    const auto name = [](const char* suffix) {
      return std::string(D::kMetricPrefix) + suffix;
    };
    static obs::Histogram& hops = obs::Registry::Global().GetHistogram(
        name(".lookup.hops"), obs::Histogram::LinearBounds(0.0, 1.0, 32));
    static obs::Counter& lookups =
        obs::Registry::Global().GetCounter(name(".lookups"));
    static obs::Counter& failures =
        obs::Registry::Global().GetCounter(name(".lookup.failures"));
    static obs::Counter& dead_skips =
        obs::Registry::Global().GetCounter(name(".lookup.dead_links_skipped"));
    lookups.AddUnchecked(1);
    hops.RecordUnchecked(static_cast<double>(r.hops));
    if (!r.ok) failures.AddUnchecked(1);
    if (st.dead_skips != 0) dead_skips.AddUnchecked(st.dead_skips);
  }
  const std::uint64_t dur_ns = st.start_ns != 0 ? st.end_ns - st.start_ns : 0;
  obs::OnLookup(r.path, r.hops, r.ok, st.dead_skips, dur_ns, r.cache_hits);
}

/// One lookup in a lane of RouteLanes: the ring and key it routes from
/// `origin`, the caller's tag `sub` (the query executor's sub-query index),
/// and the resumable walk with its result.
template <typename Ring>
struct RouteLane {
  const Ring* ring = nullptr;
  typename Ring::Id key{};
  NodeAddr origin = kNoNode;
  std::size_t sub = 0;
  typename Ring::LookupState state;
  typename Ring::LookupResult result;
};

/// Routes lookups [0, count) in lanes[0, min(width, count)), width >= 1.
/// Lookup i lives in lane i % width: name(i, lane) sets the lane's ring, key
/// and origin just before its LookupBegin, and retire(i, lane) runs once per
/// lookup, in submission order, after its walk completed. A lane begins
/// lookup i + width only after retire(i) returned, so retire may call
/// LookupFinish; with count <= width no lane is reused, and the caller may
/// instead finish the lanes itself afterwards. Every walk is stepped
/// round-robin, and each step is followed by one LookupPrefetch for the
/// walk's next step.
template <typename Ring, typename Name, typename Retire>
void RouteLanes(RouteLane<Ring>* lanes, std::size_t width, std::size_t count,
                Name&& name, Retire&& retire) {
  if (count == 0) return;
  width = std::min(width, count);
  std::size_t begun = 0;
  const auto begin = [&](RouteLane<Ring>& lane) {
    name(begun++, lane);
    lane.ring->LookupBegin(lane.key, lane.origin, lane.result, lane.state);
    lane.ring->LookupPrefetch(lane.state);
  };
  for (std::size_t l = 0; l < width; ++l) begin(lanes[l]);
  std::size_t retired = 0;
  std::size_t head = 0;  // the lane of lookup `retired`
  // A lookup whose origin is not a member completes at Begin, so the retire
  // loop runs once before any step, then only after a step completed a walk.
  bool completed = true;
  while (true) {
    if (completed) {
      while (lanes[head].state.done) {
        retire(retired, lanes[head]);
        if (++retired == count) return;
        if (begun < count) begin(lanes[head]);
        head = head + 1 == width ? 0 : head + 1;
      }
      completed = false;
    }
    for (std::size_t l = 0; l < width; ++l) {
      RouteLane<Ring>& lane = lanes[l];
      if (lane.state.done) continue;
      if (lane.ring->LookupStep(lane.state)) {
        lane.ring->LookupPrefetch(lane.state);
      } else {
        completed = true;
      }
    }
  }
}

}  // namespace lorm
