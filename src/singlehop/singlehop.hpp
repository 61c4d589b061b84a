// Single-hop DHT simulator (Monnerat & Amorim's D1HT, SBAC-PAD 2006 /
// JPDC 2009 lineage; see PAPERS.md).
//
// The four systems the paper analyzes all run on log-degree/log-hop
// substrates (Chord, Cycloid). This ring brackets the other end of the DHT
// design space: every node keeps a *complete* routing table — one entry per
// member — so any lookup resolves in a single hop, and the price moves from
// the query path to maintenance: every membership event must be disseminated
// to every node (EDRA, the Event Detection and Report Algorithm).
//
// Model. Because EDRA converges all views within one dissemination window
// and the simulator advances in discrete steps (membership events are
// instantaneous and never interleave with queries), every node's full table
// is identical between steps. The simulator therefore stores the shared view
// once — the `RingOracle` of (id, slot) pairs, the same structure chord uses
// as its maintenance oracle — and it *is* each node's routing table. What
// distinguishes honest single-hop accounting is the message meter, not
// per-node table copies:
//
//   * a join charges its bootstrap lookup plus one event-report message per
//     existing member (the joiner's table is transferred in bulk and every
//     view gains one entry: Θ(n) messages where Chord pays Θ(log n));
//   * a graceful leave likewise charges one report per surviving member;
//   * an abrupt failure charges nothing at crash time (nobody has been
//     told); the detection + dissemination bill for all crashes since the
//     last round is charged, batched EDRA-style, by the next StabilizeAll;
//   * a maintenance round charges one heartbeat per node (the successor
//     ping EDRA runs to detect failures) — *not* a per-entry refresh: the
//     whole point of event dissemination is that n-entry tables are kept
//     current without pinging n entries.
//
// Storage: a `SlotSlab` of 64-byte node headers whose generation-checked
// `SlotLink`s are the successor/predecessor pointers the range walks
// traverse (common/slot_slab.hpp). Stale links (a crash between maintenance
// rounds) fall back to the oracle.
//
// Routing: the lookup loop, its begin and finish, the maintenance meter and
// the membership observer are the shared `RingRoute` (common/ring_route.hpp),
// and its `RouteLanes` steps this ring's lookups as it does the other rings'.
// A lookup completes in one Step — origin consults its full table and hops
// straight to the owner — and Finish reports the same metrics/trace surface
// as the other rings ("singlehop.lookup.*"). The route cache is never
// enabled: a complete table cannot be shortcut.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "chord/chord.hpp"
#include "common/maintenance.hpp"
#include "common/ring_route.hpp"
#include "common/slot_slab.hpp"
#include "common/types.hpp"

namespace lorm::singlehop {

using lorm::MaintenanceStats;

/// Positions in the single-hop identifier circle are Chord keys: the ring
/// reuses chord's key space (and LookupResult/observer vocabulary) so the
/// discovery layer's directories, walks and replication protocol apply
/// unchanged.
using Key = chord::Key;
using LookupResult = chord::LookupResult;
using MembershipObserver = chord::MembershipObserver;

struct Config {
  /// Identifier-space size is 2^bits.
  unsigned bits = 24;
  /// Seed for ID assignment in random-ID mode.
  std::uint64_t seed = 0x5EEDC0DEull;
};

/// Node header: one cache line. The full routing table is the shared
/// oracle (see file comment); the header carries the spliced neighbor links
/// the range walks chase.
struct alignas(64) SingleHopNode {
  Key id = 0;
  NodeAddr addr = kNoNode;
  std::uint32_t gen = 0;  ///< bumped every time the slot is vacated
  SlotLink<Key> successor;
  SlotLink<Key> predecessor;
};
static_assert(sizeof(SingleHopNode) == 64,
              "Node header must stay one cache line");

class SingleHopRing
    : public RingRoute<SingleHopRing, SingleHopNode, MembershipObserver> {
 public:
  explicit SingleHopRing(Config cfg);

  // ---- Membership -------------------------------------------------------

  /// Joins a new node; ID = consistent hash of the address (salted on
  /// collision), exactly chord's derivation. Returns its ring ID.
  Key AddNode(NodeAddr addr);

  /// Joins a new node at an explicit ring ID (deterministic mode). Throws
  /// on ID collision.
  void AddNodeWithId(NodeAddr addr, Key id);

  /// Bulk membership for a fresh ring (chord::ChordRing::BulkAssign's
  /// contract): one sort builds the view, one StabilizeAll links the
  /// neighbors — the state n sequential joins plus StabilizeAll reach, with
  /// no join messages billed. Requires an empty ring with no observers.
  void BulkAssign(const std::vector<std::pair<NodeAddr, Key>>& members);

  /// Graceful departure: every view drops the entry; observers notified.
  void RemoveNode(NodeAddr addr);

  /// Abrupt failure: views converge (next window) but the message bill is
  /// deferred to the next StabilizeAll; successor links to the slot go
  /// stale until then.
  void FailNode(NodeAddr addr);

  std::vector<NodeAddr> Members() const { return oracle_.Members(slab_); }

  // ---- Structure queries -------------------------------------------------

  /// The owner (successor) of `key` per the shared full view.
  NodeAddr OwnerOf(Key key) const;
  /// Owner of `key` as if `excluded` had already left (observer-time
  /// handoff logic; kNoNode degrades to OwnerOf).
  NodeAddr OwnerOfExcluding(Key key, NodeAddr excluded) const;
  /// The node `steps` positions clockwise of `addr` (0 = itself), skipping
  /// `excluded`; replica placement oracle, as on the other rings.
  NodeAddr NthOracleSuccessor(NodeAddr addr, std::size_t steps,
                              NodeAddr excluded = kNoNode) const;
  NodeAddr NthOraclePredecessor(NodeAddr addr, std::size_t steps,
                                NodeAddr excluded = kNoNode) const;
  /// The node's own successor pointer: the member at SuccessorSlot of its
  /// slot.
  NodeAddr Successor(NodeAddr addr) const;
  /// Slot of the successor of the member at slot `s`, from its
  /// generation-checked link. A stale link (the successor crashed since the
  /// last window) falls back on the full table: one detected failure,
  /// billed to dead_links_skipped, zero hops.
  Slot SuccessorSlot(Slot s) const {
    const Node& n = slab_[s];
    const Slot next = slab_.Resolve(n.successor);
    if (next != kNoSlot) return next;
    maintenance_.dead_links_skipped += 1;
    return oracle_[oracle_.SuccessorIndex(n.id)].slot;
  }
  NodeAddr Predecessor(NodeAddr addr) const;

  /// Every member knows every other member: n-1 out-links (Fig 3(a)'s
  /// metric; this is the linear-degree end of the design space).
  std::size_t Outlinks(NodeAddr addr) const;

  /// The membership table as `addr`'s own view reports it, in ring order
  /// starting from the node itself. With the discrete-step EDRA model the
  /// view equals the live membership after every event — the invariant the
  /// fuzz suite asserts.
  std::vector<NodeAddr> FullViewOf(NodeAddr addr) const;

  // ---- Routing ----------------------------------------------------------
  //
  // Lookup, LookupInto and the resumable LookupBegin / LookupStep /
  // LookupFinish come from RingRoute; the one step resolves the owner from
  // the origin's full table.

  /// Warms the walk head's header line; the owner resolution is an oracle
  /// binary search with no further dependent loads.
  void LookupPrefetch(const LookupState& st) const;

  // ---- Maintenance ------------------------------------------------------

  /// One EDRA maintenance window: charges the heartbeat sweep plus the
  /// deferred dissemination bill of every crash since the last round, then
  /// refreshes all neighbor links.
  void StabilizeAll();

  /// True while every stored link is known current (chord's invariant;
  /// here only crashes break it, since joins/leaves splice eagerly).
  bool LinksFresh() const { return links_fresh_; }

  unsigned bits() const { return cfg_.bits; }
  std::uint64_t space() const { return space_; }
  const Config& config() const { return cfg_; }

  std::size_t ApproxMemoryBytes() const;

 private:
  using Route = RingRoute<SingleHopRing, SingleHopNode, MembershipObserver>;
  friend Route;
  static constexpr const char* kMetricPrefix = "singlehop";

  Key NormalizeKey(Key key) const { return key & (space_ - 1); }
  static void BeginWalk(LookupState& st) { st.max_hops = 1; }
  /// The single hop: origin's full table resolves the owner directly.
  /// Returns false once the walk completed (always after one call).
  bool StepOnce(LookupState& st, LookupResult& r) const;
  /// True iff `key` is in (pred(node), node].
  bool OwnsNode(const Node& n, Key key) const;

  /// Splices `slot`'s successor/predecessor links from the oracle and
  /// repairs its ring neighbors' links to it.
  void SpliceNeighbors(Slot slot);

  Config cfg_;
  std::uint64_t space_;
  RingOracle oracle_;  ///< the shared full view
  /// Crashes since the last StabilizeAll whose dissemination bill is still
  /// unpaid (EDRA batches event reports per maintenance window).
  std::uint64_t pending_fail_events_ = 0;
  bool links_fresh_ = false;
};

/// Populates a ring with `n` nodes at chord::InitialIds(n, cfg.bits,
/// cfg.seed, ...) — the same placement chord::MakeRing uses, so the two
/// substrates are comparable point for point — through BulkAssign.
SingleHopRing MakeSingleHopRing(std::size_t n, Config cfg,
                                bool deterministic_ids, NodeAddr base_addr = 0);

}  // namespace lorm::singlehop

namespace lorm {
extern template class RingRoute<singlehop::SingleHopRing,
                                singlehop::SingleHopNode,
                                singlehop::MembershipObserver>;
}  // namespace lorm
