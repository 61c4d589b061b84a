// Shared successor-walk used by the Chord-based range-query systems.
//
// Mercury and MAAN resolve a range sub-query by routing to the root of the
// range's lower endpoint and forwarding along ring successors until the
// queried segment [key_lo, key_hi] is covered (paper §IV-B: "the node
// forwards the query to its successor or predecessor according to their
// closeness to the queried range"). Every checked node counts as a visited
// node.
//
// Coverage grows contiguously from key_lo: after visiting a node with ID x,
// all keys in [key_lo, x] are resolved. The walk therefore stops as soon as
// the current node's ID has reached key_hi in ring order measured from
// key_lo — or when it has circled back to the root (the segment spanned the
// whole ring). Testing "does the current node own key_hi" instead is subtly
// wrong: the root's own (possibly wrapped) sector can contain key_hi while
// the middle of the segment is still uncovered.
//
// The walk steps by slab slot. WalkBegin resolves the root's address to its
// slot once; every advance then reads the head's id (IdAt) and its
// successor's slot (the ring's SuccessorSlot, the same rule Successor(addr)
// runs, dead-link billing included) straight from the slab, so a visit
// costs no address probe. On a fresh Chord ring the successor is the
// header's cached s0_slot, so a step touches one header line per node.
//
// The walk is factored into a resumable Begin/Advance/Finish state machine
// (mirroring the rings' LookupBegin/Step/Finish), so a caller can hold
// several walks in flight and interleave their visits. WalkSuccessors is
// the sequential wrapper: Begin; do { visit } while (Advance); Finish.
#pragma once

#include "chord/chord.hpp"
#include "common/error.hpp"
#include "common/slot_slab.hpp"
#include "cycloid/cycloid.hpp"
#include "discovery/stats.hpp"
#include "obs/metrics.hpp"

namespace lorm::discovery {

/// Cursor of one in-flight successor walk. `cur` is the node the caller
/// should visit next and `slot` its slab slot; `done` is set once coverage
/// (or the full circle) is reached *after* the current node's visit.
struct SuccessorWalkState {
  NodeAddr cur = kNoNode;
  SlabSlot slot = kNoSlabSlot;
  NodeAddr root = kNoNode;
  std::uint64_t mask = 0;
  std::uint64_t target = 0;
  chord::Key key_lo = 0;
  std::size_t guard = 0;
  std::size_t steps = 0;
  std::size_t forwards = 0;
  bool done = false;
};

/// Starts a walk at `root` (the owner of key_lo) over [key_lo, key_hi].
/// Requires key_lo <= key_hi in the unwrapped ID order (locality-preserving
/// hashes are monotone, so range endpoints never wrap). Templated over the
/// ring: any substrate exposing space()/size()/SlotOf/IdAt/AddrAt and
/// SuccessorSlot over chord::Key walks identically (ChordRing and the
/// single-hop ring do).
template <typename Ring>
void WalkBegin(const Ring& ring, NodeAddr root, chord::Key key_lo,
               chord::Key key_hi, SuccessorWalkState& st) {
  st.cur = root;
  st.slot = ring.SlotOf(root);
  st.root = root;
  st.mask = ring.space() - 1;
  st.target = (key_hi - key_lo) & st.mask;
  st.key_lo = key_lo;
  st.guard = ring.size() + 2;
  st.steps = 0;
  st.forwards = 0;
  st.done = false;
}

/// Advances past the already-visited st.cur. Returns true when another node
/// must be visited (st.cur and st.slot updated), false when the walk is
/// complete.
template <typename Ring>
bool WalkAdvance(const Ring& ring, SuccessorWalkState& st,
                 QueryStats& stats) {
  // Covered up to cur's ID: done once that reaches key_hi.
  if (((ring.IdAt(st.slot) - st.key_lo) & st.mask) >= st.target) {
    st.done = true;
    return false;
  }
  const SlabSlot next = ring.SuccessorSlot(st.slot);
  const NodeAddr next_addr = ring.AddrAt(next);
  if (next_addr == st.root) {  // full circle: every node checked
    st.done = true;
    return false;
  }
  LORM_CHECK_MSG(st.steps < st.guard, "ring walk failed to terminate");
  ++st.steps;
  st.cur = next_addr;
  st.slot = next;
  stats.walk_steps += 1;
  ++st.forwards;
  return true;
}

/// Records the completed walk's length metric. Call exactly once per walk.
inline void WalkFinish(const SuccessorWalkState& st) {
  if (obs::MetricsEnabled()) {
    // Interned by name, so every call site shares one histogram.
    static obs::Histogram& walk_h = obs::Registry::Global().GetHistogram(
        "ring_walk.steps", obs::Histogram::LinearBounds(0.0, 1.0, 64));
    walk_h.RecordUnchecked(static_cast<double>(st.forwards));
  }
}

/// Walks from `root` (the owner of key_lo) along successors until the
/// segment [key_lo, key_hi] is covered, calling `visit(addr)` for each node
/// checked (including `root`). Updates stats.visited_nodes/walk_steps.
template <typename Ring, typename Visit>
void WalkSuccessors(const Ring& ring, NodeAddr root, chord::Key key_lo,
                    chord::Key key_hi, QueryStats& stats, Visit&& visit) {
  SuccessorWalkState st;
  WalkBegin(ring, root, key_lo, key_hi, st);
  do {
    stats.visited_nodes += 1;
    visit(st.cur);
  } while (WalkAdvance(ring, st, stats));
  WalkFinish(st);
}

/// Cursor of LORM's intra-cluster cyclic walk: successors inside one Cycloid
/// cluster from the range's lower cyclic index until the cyclic span
/// [key_lo.k, key_hi.k] is covered. Same contract as SuccessorWalkState;
/// no length histogram (the inline loop it replaces never recorded one).
struct ClusterWalkState {
  NodeAddr cur = kNoNode;
  NodeAddr root = kNoNode;
  unsigned target = 0;
  unsigned lo_k = 0;
  std::size_t guard = 0;
  std::size_t steps = 0;
  /// Replica-fallback mode (replicated LORM): a leaf-set successor pointing
  /// at a crashed member advances to the next *live* cluster member via the
  /// oracle instead of abandoning the walk — the survivor holds a replica
  /// of the dead node's sector, so coverage is preserved.
  bool live_fallback = false;
  bool done = false;
};

inline void ClusterWalkBegin(const cycloid::CycloidNetwork& net, NodeAddr root,
                             cycloid::CycloidId key_lo,
                             cycloid::CycloidId key_hi, ClusterWalkState& st,
                             bool live_fallback = false) {
  const unsigned d = net.dimension();
  st.cur = root;
  st.root = root;
  st.target = (key_hi.k + d - key_lo.k) % d;
  st.lo_k = key_lo.k;
  st.guard = d + 2;
  st.steps = 0;
  st.live_fallback = live_fallback;
  st.done = false;
}

/// Advances past st.cur. Returns true when another cluster node must be
/// visited; false when coverage/full-circle is reached or the successor
/// chain dangles (stats.failed set, matching the original inline loop).
inline bool ClusterWalkAdvance(const cycloid::CycloidNetwork& net,
                               ClusterWalkState& st, QueryStats& stats) {
  const unsigned d = net.dimension();
  if ((net.IdOf(st.cur).k + d - st.lo_k) % d >= st.target) {
    st.done = true;
    return false;
  }
  NodeAddr next = net.InsideSuccessor(st.cur);
  if (next == st.root) {
    st.done = true;
    return false;
  }
  if (!net.Contains(next)) {
    if (!st.live_fallback) {
      stats.failed = true;
      st.done = true;
      return false;
    }
    // The leaf-set pointer leads to a crashed member: forward to the next
    // live cluster member instead — it holds a replica of the dead node's
    // sector.
    next = net.ClusterSuccessorOf(st.cur);
    if (next == st.root || next == st.cur) {
      st.done = true;
      return false;
    }
  }
  LORM_CHECK_MSG(st.steps < st.guard, "cluster walk failed to terminate");
  ++st.steps;
  st.cur = next;
  stats.walk_steps += 1;
  return true;
}

}  // namespace lorm::discovery
