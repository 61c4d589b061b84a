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
// Membership core: the sorted membership, the identifier space, the
// link-freshness flag and everything that reads only them (a joiner's id
// and checks, the bulk build, the oracle's owner and replica walks) are
// `KeyedRing`, which the single-hop ring derives from too; this ring adds
// its join, leave and crash splices and its maintenance.
//
// Storage: nodes live in a `SlotSlab` of one-cache-line headers and the
// sorted membership is a `RingOracle` (common/slot_slab.hpp describes
// both). Fingers and successor lists live in a second contiguous slab
// (`links_`) of 12-byte generation-checked `SlotRef`s: every slot owns a
// fixed extent of `bits + successor_list` refs — fingers first, successor
// list after — at an address computable from its slot index alone (and one
// flat range to promote to huge pages). A ref holds no ID: finger ids live
// only in a dense mirror (`finger_ids_`), and a successor's id is read from
// its header, on the line the ref's generation check reads anyway. The
// header caches successor(0) (`s0_*`) and holds the predecessor as a full
// `SlotLink`. At bits 11 with 4 successors a member costs 332 B: the 64-B
// header, 15 refs and 11 mirrored ids.
//
// The ring is configurable between the paper's deterministic mode (an
// 11-bit space holding all 2048 IDs) and the standard random-ID mode
// (IDs = consistent hash of the node address in a large space).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
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

/// The membership half of a ring keyed by this identifier space, shared by
/// ChordRing and singlehop::SingleHopRing: the sorted membership (`oracle_`:
/// Chord's maintenance oracle, the single-hop ring's full view), the 2^bits
/// space, the link-freshness flag, and everything that reads only them. A
/// CRTP base between RingRoute and the ring, with no virtual calls; the
/// ring supplies, as members the base (a friend) calls:
///
///   JoinAt(addr, id)   the join of a new address at a free id: seating,
///                      splices, bill and observer
///   AllocateSlot       the seating a bulk build runs (RingRoute's, or the
///                      ring's own)
///   SuccessorSlot(s)   its successor rule, which Successor reads
///   StabilizeAll()     its maintenance round; a bulk build ends with one
///
/// `ConfigT` carries the `bits` and `seed` the ids are placed with.
template <typename Derived, typename NodeT, typename ConfigT,
          typename Alloc = std::allocator<NodeT>>
class KeyedRing
    : public RingRoute<Derived, NodeT, MembershipObserver, Alloc> {
 public:
  using Config = ConfigT;

  // ---- Membership -------------------------------------------------------

  /// Joins a new node with the given address; its ID is the consistent hash
  /// of the address, salted on collision (JoinerId). Returns its ring ID.
  Key AddNode(NodeAddr addr) {
    const Key id = JoinerId(oracle_, addr, cfg_.bits, cfg_.seed);
    AddNodeWithId(addr, id);
    return id;
  }

  /// Joins a new node at an explicit ring ID (deterministic mode; the
  /// paper's fully populated 11-bit ring). Throws ConfigError on a member's
  /// address or on an ID collision.
  void AddNodeWithId(NodeAddr addr, Key id) {
    CheckJoiner(addr, id);
    if (oracle_.Contains(id)) throw ConfigError("ring id collision");
    self().JoinAt(addr, id);
  }

  /// Bulk membership for large static rings: pre-sizes the slab and address
  /// index, builds the sorted oracle with one sort instead of n spliced
  /// inserts, and closes with one StabilizeAll — O(n log n) total where n
  /// sequential joins cost O(n^2) oracle memmoves. The routing state is
  /// exactly what the join path + StabilizeAll converge to (asserted in
  /// tests); only the per-join message accounting is skipped. Requires an
  /// empty ring with no registered observer.
  void BulkAssign(const std::vector<std::pair<NodeAddr, Key>>& members) {
    LORM_CHECK_MSG(slab_.empty(), "BulkAssign requires an empty ring");
    LORM_CHECK_MSG(observer_ == nullptr,
                   "BulkAssign does not notify membership observers");
    slab_.reserve(members.size());
    oracle_.reserve(members.size());
    for (const auto& [addr, id] : members) {
      CheckJoiner(addr, id);
      oracle_.Append(id, self().AllocateSlot(addr, id));
    }
    if (!oracle_.SortDistinct()) throw ConfigError("ring id collision");
    self().StabilizeAll();
  }

  std::vector<NodeAddr> Members() const { return oracle_.Members(slab_); }

  // ---- Structure queries (oracle / protocol state) -----------------------

  /// Oracle: the current owner (successor) of `key`, folded into the space;
  /// kNoNode on an empty ring.
  NodeAddr OwnerOf(Key key) const { return OwnerOfExcluding(key, kNoNode); }
  /// Oracle owner of `key` as if `excluded` had already left the ring.
  /// Membership observers fire while the departing/failed node is still in
  /// the oracle (so its state stays readable); handoff logic uses this to
  /// compute post-event ownership. `excluded` = kNoNode degrades to OwnerOf.
  NodeAddr OwnerOfExcluding(Key key, NodeAddr excluded) const {
    return oracle_.OwnerOfExcluding(slab_, NormalizeKey(key), excluded);
  }
  /// Oracle: the node `steps` positions clockwise of `addr` (0 = itself),
  /// skipping `excluded` if given; the walk is capped at one ring
  /// revolution. This is the successor-list-replication placement oracle:
  /// replica i of a key lives on the i-th oracle successor of its owner.
  NodeAddr NthOracleSuccessor(NodeAddr addr, std::size_t steps,
                              NodeAddr excluded = kNoNode) const {
    return oracle_.NthSuccessor(slab_, addr, steps, excluded);
  }
  /// Counterclockwise counterpart of NthOracleSuccessor.
  NodeAddr NthOraclePredecessor(NodeAddr addr, std::size_t steps,
                                NodeAddr excluded = kNoNode) const {
    return oracle_.NthPredecessor(slab_, addr, steps, excluded);
  }
  /// The node's own successor pointer (protocol state): the member at the
  /// ring's SuccessorSlot of its slot.
  NodeAddr Successor(NodeAddr addr) const {
    return slab_[self().SuccessorSlot(slab_.MustFind(addr))].addr;
  }

  /// True while every stored link is known current (see links_fresh_).
  /// Exposed so tests can assert the invariant toggles where expected.
  bool LinksFresh() const { return links_fresh_; }

  unsigned bits() const { return cfg_.bits; }
  /// 2^bits as a value; bits == 64 is not supported for rings.
  std::uint64_t space() const { return space_; }
  /// The most members the space seats: one per id.
  std::uint64_t capacity() const { return space_; }
  const Config& config() const { return cfg_; }

  /// Estimated resident bytes of the slot slab and the oracle.
  std::size_t ApproxMemoryBytes() const {
    return slab_.MemoryBytes() + oracle_.MemoryBytes();
  }

 protected:
  using Route = RingRoute<Derived, NodeT, MembershipObserver, Alloc>;
  using Route::observer_;
  using Route::slab_;

  /// Throws ConfigError unless bits is in [1, 63]; `unknown_node` and
  /// `route_cache` are RingRoute's.
  KeyedRing(const Config& cfg, const char* unknown_node, bool route_cache)
      : Route(unknown_node, route_cache), cfg_(cfg) {
    if (cfg_.bits == 0 || cfg_.bits > 63) {
      throw ConfigError("ring bits must be in [1, 63]");
    }
    space_ = std::uint64_t{1} << cfg_.bits;
  }

  Key NormalizeKey(Key key) const { return key & (space_ - 1); }

  Config cfg_;
  std::uint64_t space_;
  RingOracle oracle_;
  /// Freshness invariant: true => every link a live node holds (Chord's
  /// fingers, successor list and predecessor; the single-hop ring's
  /// neighbor links) still points at its original occupant, i.e.
  /// slab_.Current(l) for every stored link. StabilizeAll establishes it;
  /// a membership change that can leave a link stale clears it before
  /// touching state (every Chord change, a single-hop crash). While it
  /// holds, Chord's lookup path skips every generation-validation deref —
  /// the checks would all pass — leaving results, counters and traces
  /// bit-identical; stale rings take the general path.
  bool links_fresh_ = false;

 private:
  /// A joiner's id lies in the space and its address is not a member.
  void CheckJoiner(NodeAddr addr, Key id) const {
    LORM_CHECK_MSG(id < space_, "ring id outside the identifier space");
    if (this->Contains(addr)) {
      throw ConfigError("node address already in ring");
    }
  }
  Derived& self() { return static_cast<Derived&>(*this); }
  const Derived& self() const { return static_cast<const Derived&>(*this); }
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
class ChordRing : public KeyedRing<ChordRing, ChordNode, Config,
                                   HugePageAllocator<ChordNode>> {
 public:
  explicit ChordRing(Config cfg);

  // ---- Membership -------------------------------------------------------
  //
  // AddNode and AddNodeWithId come from KeyedRing. A join splices its
  // successor and predecessor and leaves remote finger tables stale.

  /// KeyedRing's bulk build, with the link slab sized up front and the
  /// slabs promoted to huge pages afterwards.
  void BulkAssign(const std::vector<std::pair<NodeAddr, Key>>& members);

  /// Graceful departure: splices the ring and notifies observers.
  void RemoveNode(NodeAddr addr);

  /// Abrupt failure: the node vanishes without notifying anyone. Neighbors'
  /// pointers to it go stale until routing skips them and maintenance
  /// repairs them; anything it stored is lost (observers get OnFail).
  void FailNode(NodeAddr addr);

  // ---- Structure queries (protocol state) --------------------------------
  //
  // The oracle's OwnerOf, OwnerOfExcluding and NthOracle* walks, and
  // Successor, come from KeyedRing.

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

  /// Re-derives every live node's fingers, finger-id mirror, successor
  /// list, cached successor(0) and predecessor from the oracle, and reports
  /// whether each stored ref matches in slot, generation and address, each
  /// finger's mirrored id and the cached successor(0) match their targets'
  /// headers, and the predecessor matches in id too. For tests: holds after
  /// every StabilizeAll, whichever path it took.
  bool LinksMatchOracle() const;

  /// KeyedRing's estimate plus the link slab and the finger-id mirror —
  /// fig_scale's footprint column.
  std::size_t ApproxMemoryBytes() const;

 private:
  friend KeyedRing;
  friend Route;
  static constexpr const char* kMetricPrefix = "chord";

  /// Re-caches successor(0) into the node header after a successor-extent
  /// write (see Node::s0_id).
  void SyncSucc0(Node& n);
  /// The slot's finger extent (finger_count valid entries).
  SlotRef* SlotFingers(Slot s) {
    return links_.data() + std::size_t{s} * link_stride_;
  }
  const SlotRef* SlotFingers(Slot s) const {
    return links_.data() + std::size_t{s} * link_stride_;
  }
  /// The slot's successor-list extent (succ_count valid entries).
  SlotRef* SlotSuccessors(Slot s) { return SlotFingers(s) + cfg_.bits; }
  const SlotRef* SlotSuccessors(Slot s) const {
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
  /// The join: splices the joiner between its successor and predecessor.
  void JoinAt(NodeAddr addr, Key id);
  /// RingRoute's seating, plus the slot's link extent.
  Slot AllocateSlot(NodeAddr addr, Key id);
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
  /// ClosestPrecedingSlot restricted to a fresh ring (links_fresh_) and to
  /// keys past successor(0): same scan order and interval tests, but finger
  /// IDs come from the mirror — no generation derefs. Returns the chosen
  /// ref, or nullptr where no finger precedes the key.
  const SlotRef* ClosestPrecedingRefFresh(const Node& n, Key key) const;
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

  /// Routing-array slab: link_stride_ refs per slot (bits fingers, then
  /// successor_list successors). Grows with the node slab, entries stay put.
  std::vector<SlotRef, HugePageAllocator<SlotRef>> links_;
  /// The finger targets' ids (stride cfg_.bits per slot), written wherever
  /// the finger refs are: the only copy of a finger's id. The fresh-path
  /// closest-preceding scan runs over this dense array — 8 ids per cache
  /// line, and contiguous 64-bit lanes the vectorized scan can compare four
  /// at a time.
  std::vector<Key, HugePageAllocator<Key>> finger_ids_;
  std::size_t link_stride_ = 0;
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
  std::vector<SlotRef> repointed_;
  bool sweep_pending_ = true;
};

/// Populates a `Ring` (ChordRing, or singlehop::SingleHopRing) with `n`
/// nodes at InitialIds(n, cfg.bits, cfg.seed, ...), so the two substrates
/// are comparable point for point.
///
/// Built through the O(n log n) bulk path (BulkAssign): the converged
/// routing state of n sequential joins plus StabilizeAll, without per-join
/// oracle splices. This is what lets the scale sweeps reach n = 10^6. The
/// maintenance meter bills the closing stabilization round only, not n
/// join messages.
template <typename Ring = ChordRing>
Ring MakeRing(std::size_t n, const typename Ring::Config& cfg,
              bool deterministic_ids, NodeAddr base_addr = 0) {
  Ring ring(cfg);
  ring.BulkAssign(
      InitialIds(n, cfg.bits, cfg.seed, deterministic_ids, base_addr));
  return ring;
}

}  // namespace lorm::chord

namespace lorm {
extern template class RingRoute<chord::ChordRing, chord::ChordNode,
                                chord::MembershipObserver,
                                HugePageAllocator<chord::ChordNode>>;
}  // namespace lorm
