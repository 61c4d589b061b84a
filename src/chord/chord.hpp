// Chord DHT simulator (Stoica et al., IEEE/ACM ToN 2003).
//
// This is the substrate the paper runs Mercury, SWORD and MAAN on ("to be
// comparable, we use Chord for attribute hubs in Mercury, and we replace
// Bamboo DHT with Chord in SWORD", §IV). The simulator is message-level:
//
//  * every node keeps its own finger table, successor list and predecessor;
//  * Lookup() walks those tables hop by hop from the querying node, exactly
//    as the iterative Chord protocol does, and reports the real hop count
//    and path — hop metrics in the figures come from here, never formulas;
//  * joins and graceful departures splice the successor/predecessor ring
//    immediately (the protocol's notify step) and leave finger tables stale
//    until the next StabilizeAll, so churn experiments exercise routing
//    through partially stale state, as in the paper's §V-C;
//  * a global sorted index of members serves purely as the maintenance
//    oracle (what stabilization converges to) and for O(1) test assertions.
//
// Maintenance: StabilizeAll bills the protocol's round — every live node
// refreshes each finger, each successor-list entry and its predecessor —
// but only does the work the membership change made necessary. A join at x
// with predecessor p moves the key arc (p, x]; a leave or crash of x moves
// the same arc. Each event records its arc, and the next StabilizeAll
// re-derives only what those arcs touch: finger i of every member in
// (p - 2^i, x - 2^i], the successor lists of the successor_list members
// before the arc's current owner, and that owner's successor list and
// predecessor. A leave splices through its possibly stale successor list,
// so the member it repointed is recorded too and gets its predecessor
// rebuilt. The round after BulkAssign, after an event that
// found fewer than two members, or once events x (bits + successor_list +
// 3) reach n (where the sweep was timed to overtake the repair) instead
// takes one id-order sweep with a forward-only cursor per finger index.
// Both paths leave exactly the links a full rebuild from the oracle would
// (LinksMatchOracle).
//
// Routing core: the lookup loop, its begin and finish, the route-cache
// shortcut, the maintenance meter and the membership observer are the
// shared `RingRoute` (common/ring_route.hpp); this ring supplies the step,
// its termination predicate and its tables.
//
// Storage: nodes live in a `SlotSlab` of one-cache-line headers and
// routing entries are its generation-checked `SlotLink`s; the sorted
// membership is a `RingOracle` (common/slot_slab.hpp describes all three).
// The links themselves live in a second contiguous slab (`links_`): every
// slot owns a fixed extent of `bits + successor_list` entries — fingers
// first, successor list after — at an address computable from its slot
// index alone (and one flat range to promote to huge pages).
//
// The ring is configurable between the paper's deterministic mode (an
// 11-bit space holding all 2048 IDs) and the standard random-ID mode
// (IDs = consistent hash of the node address in a large space).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/hashing.hpp"
#include "common/hugepage.hpp"
#include "common/maintenance.hpp"
#include "common/ring_route.hpp"
#include "common/slot_slab.hpp"
#include "common/types.hpp"

namespace lorm::chord {

using lorm::MaintenanceStats;

/// Position in the Chord identifier circle.
using Key = std::uint64_t;

/// True iff `x` lies in the half-open ring interval (lo, hi] (mod 2^bits).
bool InIntervalOC(Key x, Key lo, Key hi);
/// True iff `x` lies in the open ring interval (lo, hi) (mod 2^bits).
bool InIntervalOO(Key x, Key lo, Key hi);

struct Config {
  /// Identifier-space size is 2^bits. The paper uses bits=11 with 2048 nodes.
  unsigned bits = 24;
  /// Length of each node's successor list (>= 1).
  std::size_t successor_list = 4;
  /// Seed for ID assignment in random-ID mode.
  std::uint64_t seed = 0x5EEDC0DEull;
  /// Learn per-node shortcut links from completed lookups and consult them
  /// before the finger tables (see cache/route_cache.hpp). Off by default:
  /// the uncached walk is the paper's protocol and stays byte-identical.
  bool route_cache = false;
};

/// Result of routing a lookup through the overlay.
using LookupResult = RouteResult<Key>;

/// Observer of ring membership changes; the discovery layer uses this to
/// re-home stored resource information when key ownership moves.
class MembershipObserver {
 public:
  virtual ~MembershipObserver() = default;
  /// Called after `node` has joined (it is already in the ownership
  /// oracle); keys in (pred(node), node] moved from `successor` to `node`.
  virtual void OnJoin(NodeAddr node, NodeAddr successor) = 0;
  /// Called before `node` leaves, while it is still in the ownership
  /// oracle; all its keys move to `successor` (kNoNode when the last node
  /// leaves). Handlers that need post-departure ownership use
  /// OwnerOfExcluding / the Nth* walks with `node` excluded.
  virtual void OnLeave(NodeAddr node, NodeAddr successor) = 0;
  /// Called when `node` fails abruptly, before it leaves the ownership
  /// oracle (its state is still readable). The ring performs no handoff:
  /// with replication off everything the node stored is lost until
  /// providers re-advertise (soft state); replicated services use this
  /// hook to restore coverage from surviving replicas.
  virtual void OnFail(NodeAddr node) { (void)node; }
};

/// Node header: everything but the routing arrays, which live in the ring's
/// link slab at extent `slot * link_stride_` (fingers, then successors).
/// Line-aligned so the walk's header read is exactly one cache line.
struct alignas(64) ChordNode {
  Key id = 0;
  NodeAddr addr = kNoNode;
  std::uint32_t gen = 0;  ///< bumped every time the slot is vacated
  std::uint16_t finger_count = 0;  ///< live prefix of the finger extent
  std::uint16_t succ_count = 0;    ///< live prefix of the successor extent
  /// In-header copy of the first successor link (kept in sync by
  /// SyncSucc0 at every write of the successor extent). Every routing
  /// step tests the key against successor(0) — caching its id/slot/addr
  /// here keeps the whole test on the header line instead of touching
  /// the successor extent, one fewer line per hop for the fresh path.
  /// No generation field: the fresh path performs no staleness checks,
  /// and the stale path reads the real extent entry instead.
  Key s0_id = 0;
  SlabSlot s0_slot = kNoSlabSlot;
  NodeAddr s0_addr = kNoNode;
  SlotLink<Key> predecessor;
};
static_assert(sizeof(ChordNode) == 64, "Node header must stay one cache line");

/// Both slabs (the nodes and links_) live on hugepage-backed mappings (see
/// common/hugepage.hpp): large rings span thousands of 4 KiB pages, beyond
/// TLB coverage, and x86 drops software prefetches whose page walk misses
/// the TLB — which would defeat the batch engine's prefetch pipeline exactly
/// where it matters most. 2 MiB pages keep both slabs TLB-resident.
class ChordRing
    : public RingRoute<ChordRing, ChordNode, MembershipObserver,
                       HugePageAllocator<ChordNode>> {
 public:
  explicit ChordRing(Config cfg);

  // ---- Membership -------------------------------------------------------

  /// Joins a new node with the given address; its ID is the consistent hash
  /// of the address (salted on collision). Returns its ring ID.
  Key AddNode(NodeAddr addr);

  /// Joins a new node at an explicit ring ID (deterministic mode; the
  /// paper's fully populated 11-bit ring). Throws on ID collision.
  void AddNodeWithId(NodeAddr addr, Key id);

  /// Bulk membership for large static rings: pre-sizes the slab and address
  /// index, builds the sorted oracle with one sort instead of n spliced
  /// inserts, and stabilizes every node once — O(n log n) total where n
  /// sequential joins cost O(n^2) oracle memmoves. The routing state is
  /// exactly what the join path + StabilizeAll converge to (asserted in
  /// tests); only the per-join message accounting is skipped. Requires an
  /// empty ring with no registered observers.
  void BulkAssign(const std::vector<std::pair<NodeAddr, Key>>& members);

  /// Graceful departure: splices the ring and notifies observers.
  void RemoveNode(NodeAddr addr);

  /// Abrupt failure: the node vanishes without notifying anyone. Neighbors'
  /// pointers to it go stale until routing skips them and maintenance
  /// repairs them; anything it stored is lost (observers get OnFail).
  void FailNode(NodeAddr addr);

  std::vector<NodeAddr> Members() const { return oracle_.Members(slab_); }

  // ---- Structure queries (oracle / protocol state) -----------------------

  /// Oracle: the current owner (successor) of `key`.
  NodeAddr OwnerOf(Key key) const;
  /// Oracle owner of `key` as if `excluded` had already left the ring.
  /// Membership observers fire while the departing/failed node is still in
  /// the oracle (so its state stays readable); handoff logic uses this to
  /// compute post-event ownership. `excluded` = kNoNode degrades to OwnerOf.
  NodeAddr OwnerOfExcluding(Key key, NodeAddr excluded) const;
  /// Oracle: the node `steps` positions clockwise of `addr` (0 = itself),
  /// skipping `excluded` if given; the walk is capped at one ring
  /// revolution. This is the successor-list-replication placement oracle:
  /// replica i of a key lives on the i-th oracle successor of its owner.
  NodeAddr NthOracleSuccessor(NodeAddr addr, std::size_t steps,
                              NodeAddr excluded = kNoNode) const;
  /// Counterclockwise counterpart of NthOracleSuccessor.
  NodeAddr NthOraclePredecessor(NodeAddr addr, std::size_t steps,
                                NodeAddr excluded = kNoNode) const;
  /// The node's own successor pointer (protocol state): the member at
  /// SuccessorSlot of its slot.
  NodeAddr Successor(NodeAddr addr) const;
  /// Slot of the successor of the member at slot `s`: the first live entry
  /// of its successor list, each dead entry skipped billed to
  /// dead_links_skipped, or the oracle's successor when the whole list
  /// died. On a fresh ring (LinksFresh) that is the header's cached
  /// s0_slot, read without touching the successor extent.
  Slot SuccessorSlot(Slot s) const {
    const Node& n = slab_[s];
    if (links_fresh_ && n.succ_count != 0) return n.s0_slot;
    return FirstLiveSuccessorSlot(n);
  }
  NodeAddr Predecessor(NodeAddr addr) const;

  /// Number of distinct live remote nodes in the routing state (fingers,
  /// successor list, predecessor). This is the "outlinks" metric of Fig 3(a).
  std::size_t Outlinks(NodeAddr addr) const;

  /// Distinct finger-table targets only (the classic log n figure).
  std::size_t FingerTableSize(NodeAddr addr) const;

  /// Every distinct node the given node can reach in one hop (fingers,
  /// successor list, predecessor — live or stale). Exposed so tests can
  /// verify that lookup paths only ever traverse real routing-table links.
  std::vector<NodeAddr> NeighborsOf(NodeAddr addr) const;

  /// Raw finger-table targets in table order (index i covers id + 2^i),
  /// stale entries included. Lets the micro benches re-run the exact lookup
  /// walk through the public address-based API as a reference check on the
  /// slot-slab routing path.
  std::vector<NodeAddr> FingersOf(NodeAddr addr) const;
  /// Raw successor-list targets in list order, stale entries included.
  std::vector<NodeAddr> SuccessorListOf(NodeAddr addr) const;

  // ---- Routing ----------------------------------------------------------
  //
  // Lookup, LookupInto and the resumable LookupBegin / LookupStep /
  // LookupFinish come from RingRoute: the iterative Chord walk from
  // `origin`, using only per-node tables.

  /// LookupStep, skipping the dead-link bookkeeping on a fresh ring, where
  /// every link resolves from its cached fields and none can be dead.
  bool LookupStep(LookupState& st) const;

  /// Issues __builtin_prefetch for the slab lines the walk's next LookupStep
  /// will read (call right after Begin or a hop): the node header line and
  /// its routing extent. Both addresses are computed from the slot index,
  /// so no prefetch waits for another's load. Pure prefetch: no observable
  /// effect, safe to skip or repeat.
  void LookupPrefetch(const LookupState& st) const;

  // ---- Maintenance ------------------------------------------------------

  /// One maintenance round: bills every live node's refresh of its
  /// fingers, successor list and predecessor, and converges every link to
  /// the oracle — by repairing the arcs moved since the last round, or by
  /// one full sweep (see the file comment).
  void StabilizeAll();

  /// True while every stored link is known current (see links_fresh_).
  /// Exposed so tests can assert the invariant toggles where expected.
  bool LinksFresh() const { return links_fresh_; }

  /// Re-derives every live node's fingers, finger-id mirror, successor
  /// list, cached successor(0) and predecessor from the oracle, and reports
  /// whether each stored link matches in slot, generation, address and id.
  /// For tests: holds after every StabilizeAll, whichever path it took.
  bool LinksMatchOracle() const;

  unsigned bits() const { return cfg_.bits; }
  /// 2^bits as a value; bits == 64 is not supported for rings.
  std::uint64_t space() const { return space_; }
  const Config& config() const { return cfg_; }

  /// Estimated resident bytes of the overlay state (slot slab, per-node
  /// routing vectors, oracle, address index) — fig_scale's footprint column.
  std::size_t ApproxMemoryBytes() const;

 private:
  using Route = RingRoute<ChordRing, ChordNode, MembershipObserver,
                          HugePageAllocator<ChordNode>>;
  friend Route;
  static constexpr const char* kMetricPrefix = "chord";

  /// Re-caches successor(0) into the node header after a successor-extent
  /// write (see Node::s0_id).
  void SyncSucc0(Node& n);
  /// The slot's finger extent (finger_count valid entries).
  Link* SlotFingers(Slot s) {
    return links_.data() + std::size_t{s} * link_stride_;
  }
  const Link* SlotFingers(Slot s) const {
    return links_.data() + std::size_t{s} * link_stride_;
  }
  /// The slot's successor-list extent (succ_count valid entries).
  Link* SlotSuccessors(Slot s) { return SlotFingers(s) + cfg_.bits; }
  const Link* SlotSuccessors(Slot s) const {
    return SlotFingers(s) + cfg_.bits;
  }
  /// The slot's finger-id mirror (see finger_ids_).
  Key* SlotFingerIds(Slot s) {
    return finger_ids_.data() + std::size_t{s} * cfg_.bits;
  }
  const Key* SlotFingerIds(Slot s) const {
    return finger_ids_.data() + std::size_t{s} * cfg_.bits;
  }
  /// Best-effort promotion of the node/link slabs to transparent huge
  /// pages: random-access prefetches are dropped on TLB misses, so large
  /// rings want the slabs TLB-resident. No observable effect on results.
  void CollapseSlabs();
  /// RingRoute's seating, plus the slot's link extent.
  Slot AllocateSlot(NodeAddr addr, Key id);
  Key NormalizeKey(Key key) const { return key & (space_ - 1); }
  void BeginWalk(LookupState& st) const {
    st.max_hops = slab_.size() + 4 * cfg_.bits + 8;
  }
  /// True iff `key` is in (pred(node), node] per the node's own state.
  bool OwnsNode(const Node& n, Key key) const;
  /// First live entry of the node's successor list (falls back to oracle if
  /// the whole list died; counts as a detected failure, not a hop).
  Slot FirstLiveSuccessorSlot(const Node& n) const;
  /// Like FirstLiveSuccessorSlot but never returns `excluded` (used while
  /// the excluded node is departing).
  Slot FirstLiveSuccessorSlotExcept(const Node& n, NodeAddr excluded) const;
  Slot ClosestPrecedingSlot(const Node& n, Key key) const;
  /// ClosestPrecedingSlot restricted to a fresh ring (links_fresh_): same
  /// scan order and interval tests, but candidate IDs come from the links
  /// themselves — no generation derefs. Returns the chosen link, or nullptr
  /// where the general scan returns kNoSlot.
  const Link* ClosestPrecedingLinkFresh(const Node& n, Key key) const;
  /// One iteration of the lookup loop (hop, cache shortcut, or
  /// termination); returns false when the walk completed.
  bool StepOnce(LookupState& st, LookupResult& r) const;
  /// A member's converged routing state, from the oracle: BuildFingers
  /// searches each finger's owner; BuildSuccessors (header copy included)
  /// and BuildPredecessor read the positions next to `pos`, the member's
  /// own oracle position.
  void BuildFingers(Node& n);
  void BuildSuccessors(Node& n, std::size_t pos);
  void BuildPredecessor(Node& n, std::size_t pos);
  /// Records the arc a join, leave or crash of the member at oracle
  /// position `pos` moves; `found` is the member count the event found.
  void NoteMovedArc(std::size_t pos, std::size_t found);
  /// Records the member a leave pointed at the leaver's predecessor.
  void NoteRepointed(Slot s);
  /// Re-derives every link the moved arc (lo, hi] can have changed, save
  /// the predecessors in repointed_.
  void RepairArc(Key lo, Key hi);
  /// Rebuilds every live node's links in one id-order sweep.
  void RebuildAll();
  Key FingerStart(Key id, unsigned i) const;

  Config cfg_;
  std::uint64_t space_;
  /// Routing-array slab: link_stride_ entries per slot (bits fingers, then
  /// successor_list successors). Grows with the node slab, entries stay put.
  std::vector<Link, HugePageAllocator<Link>> links_;
  /// 8-byte mirror of the finger extents' ids (stride cfg_.bits per slot),
  /// written wherever the finger links are. The fresh-path
  /// closest-preceding scan runs over this dense array — 8 ids per cache
  /// line instead of 2.6 links, and contiguous 64-bit lanes the vectorized
  /// scan can compare four at a time.
  std::vector<Key, HugePageAllocator<Key>> finger_ids_;
  std::size_t link_stride_ = 0;
  RingOracle oracle_;
  /// Freshness invariant: true ⇒ every Link held by a live node (fingers,
  /// successor list, predecessor) still points at its original occupant,
  /// i.e. slab_.Current(l) for every stored link. StabilizeAll
  /// establishes it (every link rebuilt from the oracle); any membership
  /// mutation clears it before touching state. While it holds, the lookup
  /// path skips every generation-validation deref — the checks would all
  /// pass — turning ~scan-depth random slab reads per hop into zero and
  /// leaving results, counters and traces bit-identical. Stale rings take
  /// the unmodified general path.
  bool links_fresh_ = false;
  /// Key arcs (lo, hi] whose owner changed since the last StabilizeAll,
  /// which repairs these — unless sweep_pending_, in which case the list
  /// is empty and the next round rebuilds everything.
  struct MovedArc {
    Key lo;
    Key hi;
  };
  std::vector<MovedArc> moved_arcs_;
  /// Members a leave pointed at its stored predecessor since the last
  /// StabilizeAll. The leave splices the first *live* member of its own,
  /// possibly stale, successor list, which can sit past members it never
  /// listed: that member's predecessor turns wrong although no arc moved
  /// next to it, so the repair rebuilds these predecessors. Every other
  /// splice write lands where the arcs' repair reaches anyway (DESIGN.md
  /// §5 item 7). Empty while sweep_pending_.
  std::vector<Link> repointed_;
  bool sweep_pending_ = true;
};

/// Random-ID placement: the consistent hash of `addr` (mixed with `seed`)
/// in a 2^bits space, re-salted while `taken(id)` holds. AddNode on this
/// ring and on the single-hop ring, and InitialIds, all place nodes here.
template <typename Taken>
Key HashedId(NodeAddr addr, unsigned bits, std::uint64_t seed,
             const Taken& taken) {
  const auto base = static_cast<std::uint64_t>(addr) ^ seed;
  Key id = ConsistentHash(bits)(base);
  for (std::uint64_t salt = 1; taken(id); ++salt) {
    id = MixHashes(base, salt) & ((std::uint64_t{1} << bits) - 1);
  }
  return id;
}

/// HashedId against the current members of a 2^bits ring: the id AddNode
/// assigns. Throws ConfigError when every id is taken.
Key JoinerId(const RingOracle& members, NodeAddr addr, unsigned bits,
             std::uint64_t seed);

/// IDs of a fresh ring of `n` members at addresses base..base+n-1, in
/// address order. In deterministic mode they are evenly spaced over the
/// full space after a seed-derived rotation (with bits = ceil(log2 n) and n
/// a power of two this is the paper's fully populated ring); otherwise each
/// is HashedId against the IDs before it, exactly as n sequential AddNode
/// calls would assign them.
std::vector<std::pair<NodeAddr, Key>> InitialIds(std::size_t n, unsigned bits,
                                                 std::uint64_t seed,
                                                 bool deterministic_ids,
                                                 NodeAddr base_addr);

/// Populates a ring with `n` nodes at InitialIds(n, cfg.bits, cfg.seed, ...).
///
/// Built through the O(n log n) bulk path (BulkAssign): the converged
/// routing state of n sequential joins plus StabilizeAll, without per-join
/// oracle splices. This is what lets the scale sweeps reach n = 10^6. The
/// maintenance meter bills the closing stabilization round only, not n
/// join messages.
ChordRing MakeRing(std::size_t n, Config cfg, bool deterministic_ids,
                   NodeAddr base_addr = 0);

}  // namespace lorm::chord

namespace lorm {
extern template class RingRoute<chord::ChordRing, chord::ChordNode,
                                chord::MembershipObserver,
                                HugePageAllocator<chord::ChordNode>>;
}  // namespace lorm
