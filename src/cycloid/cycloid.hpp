// Cycloid DHT simulator (Shen, Xu, Chen — Performance Evaluation 63(3), 2006).
//
// Cycloid is a constant-degree overlay emulating a cube-connected-cycles
// graph. With dimension d it holds up to n = d * 2^d nodes. Every node is
// named by a pair (k, a):
//
//   k — cyclic index in [0, d): the node's position on a small cycle;
//   a — cubical index in [0, 2^d): which small cycle ("cluster") it is on.
//
// Nodes with equal cubical index form a cluster ordered by cyclic index; the
// clusters themselves are ordered by cubical index on a large cycle. LORM
// (§III of the reproduced paper) keys attributes to clusters and attribute
// values to positions inside a cluster.
//
// Per the Cycloid design, a node's routing state has constant size (7
// entries), independent of n:
//
//   * cubical neighbor   — a node in the cluster whose cubical index flips
//                          bit (k-1) of `a` (lower bits don't-care), with
//                          cyclic index near k-1; null when k == 0;
//   * 2 cyclic neighbors — nodes with cyclic index near k-1 in the clusters
//                          adjacent on the large cycle; null when k == 0;
//   * inside leaf set    — cyclic predecessor/successor inside the cluster;
//   * outside leaf set   — the primary node (largest cyclic index) of the
//                          preceding and succeeding clusters.
//
// Routing is MSB-first: ascend/descend the small cycle to the cyclic index
// just above the most significant differing cubical bit, flip it through the
// cubical neighbor, repeat; once inside the target cluster, rotate along the
// inside leaf set to the owner. Paths are O(d). When churn leaves a cluster
// without the needed cyclic position, routing falls back to a directional
// cluster walk over the outside leaf sets, which always terminates.
//
// Key assignment uses the successor convention on the lexicographic
// (cubical, cyclic) order: the owner cluster of cubical value `a` is the
// first existing cluster with cubical index >= a (wrapping), and the owner
// node within it is the first member with cyclic index >= k (wrapping).
// This realizes the paper's "a key is assigned to the node whose ID is
// closest to its ID" with exact, locally testable sectors.
//
// Storage: nodes live in a `SlotSlab` and the 7 routing entries are its
// generation-checked `SlotLink`s (common/slot_slab.hpp).
// The lookup loop, its begin and finish, the route-cache shortcut, the
// maintenance meter and the membership observer are the shared `RingRoute`
// (common/ring_route.hpp); this network supplies the routing step, its
// termination predicate, the walk's fallback state and its tables.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/maintenance.hpp"
#include "common/ring_route.hpp"
#include "common/slot_slab.hpp"
#include "common/types.hpp"

namespace lorm::cycloid {

using lorm::MaintenanceStats;

/// A Cycloid identifier (k = cyclic index, a = cubical index).
struct CycloidId {
  unsigned k = 0;        ///< cyclic index, in [0, d)
  std::uint64_t a = 0;   ///< cubical index, in [0, 2^d)

  friend bool operator==(const CycloidId&, const CycloidId&) = default;
};

struct Config {
  /// Cycloid dimension; capacity is d * 2^d nodes. The paper uses d = 8
  /// (2048 nodes). Must be in [2, 24].
  unsigned dimension = 8;
  std::uint64_t seed = 0xC1C101Dull;
  /// Learn per-node shortcut links from completed lookups and consult them
  /// before NextHop (see cache/route_cache.hpp). Off by default: the
  /// uncached walk is the paper's protocol and stays byte-identical.
  bool route_cache = false;
};

using LookupResult = RouteResult<CycloidId>;

/// Observer of membership changes.
///
/// Unlike Chord, a Cycloid join can shrink the sectors of *several* nodes at
/// once: a join that creates a new cluster takes over a cubical sector that
/// was spread across every member of the succeeding cluster. OnJoin therefore
/// reports the full candidate source set; stored objects whose owner became
/// `node` are found among those sources.
class MembershipObserver {
 public:
  virtual ~MembershipObserver() = default;
  /// Called after `node` joined and the surrounding leaf sets were repaired.
  virtual void OnJoin(NodeAddr node,
                      const std::vector<NodeAddr>& possible_sources) = 0;
  /// Called after `node` was removed from the ownership oracle (its objects
  /// must be re-homed via OwnerOf) but while its state is still readable.
  virtual void OnLeave(NodeAddr node) = 0;
  /// Called when `node` fails abruptly, after it was removed from the
  /// ownership oracle but while its state is still readable (as OnLeave).
  /// The network performs no handoff: with replication off everything the
  /// node stored is lost until providers re-advertise (soft state);
  /// replicated services restore coverage from surviving copies here.
  virtual void OnFail(NodeAddr node) { (void)node; }
};

/// A slab node: its id and all 7 routing entries, inline.
struct CycloidNode {
  CycloidId id;
  NodeAddr addr = kNoNode;
  std::uint32_t gen = 0;  ///< bumped every time the slot is vacated
  /// Keeps the links at offset 32 and the node at four cache lines; the
  /// unpadded 248-byte node measured slower LORM lookups in fig_scale.
  std::uint64_t pad = 0;
  SlotLink<CycloidId> inside_succ;
  SlotLink<CycloidId> inside_pred;
  SlotLink<CycloidId> outside_succ;  // primary of succeeding cluster
  SlotLink<CycloidId> outside_pred;  // primary of preceding cluster
  SlotLink<CycloidId> cubical;       // flips bit k-1 (null when k == 0)
  SlotLink<CycloidId> cyclic_succ;   // ~k-1 in succeeding cluster
  SlotLink<CycloidId> cyclic_pred;   // ~k-1 in preceding cluster
};
static_assert(sizeof(CycloidNode) == 256, "Node must stay four cache lines");

/// The shared walk state plus Cycloid's sticky cluster-walk fallback and
/// backtrack detection, carried across steps.
struct CycloidWalk : RouteState<CycloidId> {
  SlabSlot prev = kNoSlabSlot;     ///< previous hop (backtrack detection)
  std::size_t structured_cap = 0;  ///< budget before forcing walk mode
  bool walk_mode = false;          ///< sticky cluster-walk fallback engaged
};

class CycloidNetwork
    : public RingRoute<CycloidNetwork, CycloidNode, MembershipObserver,
                       std::allocator<CycloidNode>, CycloidWalk> {
 public:
  explicit CycloidNetwork(Config cfg);

  // ---- Membership -------------------------------------------------------

  /// Joins with an ID derived by consistent hashing of the address (probing
  /// to the next free position on collision). Returns the assigned ID.
  CycloidId AddNode(NodeAddr addr);

  /// Joins at an explicit position. Throws if occupied.
  void AddNodeWithId(NodeAddr addr, CycloidId id);

  /// Bulk membership for large static networks: pre-sizes the slab and
  /// address index, inserts every member into the cluster oracle without
  /// the per-join neighborhood repairs, then stabilizes once — the same
  /// converged state n sequential joins + StabilizeAll reach (asserted in
  /// tests); only per-join message accounting is skipped. Requires an empty
  /// network with no registered observers.
  void BulkAssign(const std::vector<std::pair<NodeAddr, CycloidId>>& members);

  /// Graceful departure.
  void RemoveNode(NodeAddr addr);

  /// Abrupt failure: the node vanishes without notifying its leaf sets.
  /// Neighbors' entries go stale until routing skips them and
  /// self-organization repairs them; its stored objects are lost.
  void FailNode(NodeAddr addr);

  std::vector<NodeAddr> Members() const;

  // ---- Structure queries --------------------------------------------------

  /// Oracle: the node currently owning `key`.
  NodeAddr OwnerOf(CycloidId key) const;

  /// Members of the cluster owning cubical value `a`, in cyclic order.
  std::vector<NodeAddr> ClusterMembersOf(std::uint64_t a) const;
  std::size_t ClusterCount() const { return clusters_.size(); }

  /// Inside-leaf-set pointers (the small cycle). Self when alone.
  NodeAddr InsideSuccessor(NodeAddr addr) const;
  NodeAddr InsidePredecessor(NodeAddr addr) const;

  /// Oracle: the next live member of `addr`'s cluster in cyclic order
  /// (self when alone). Unlike InsideSuccessor this never points at a
  /// failed node — the replica-fallback cluster walk advances with it when
  /// a leaf-set pointer leads to a crashed member.
  NodeAddr ClusterSuccessorOf(NodeAddr addr) const;

  /// Distinct live remote nodes in the 7-entry routing state — the
  /// constant-degree outlink count of Fig 3(a).
  std::size_t Outlinks(NodeAddr addr) const;

  /// Every distinct node the given node can reach in one hop through its
  /// 7-entry routing state (live or stale). Exposed so tests can verify
  /// that lookup paths only ever traverse real routing-table links.
  std::vector<NodeAddr> NeighborsOf(NodeAddr addr) const;

  // ---- Routing ------------------------------------------------------------
  //
  // Lookup, LookupInto and the resumable LookupBegin / LookupStep /
  // LookupFinish come from RingRoute: routing from `origin` to the owner of
  // a key using only per-node state.

  /// Prefetches the current node's slab lines, which the next LookupStep
  /// reads (all 7 links are inline). Pure prefetch: no observable effect,
  /// safe to skip or repeat.
  void LookupPrefetch(const LookupState& st) const;

  // ---- Maintenance --------------------------------------------------------

  /// Maintenance round over every node (self-organization fixed point).
  void StabilizeAll();

  unsigned dimension() const { return cfg_.dimension; }
  std::uint64_t cluster_space() const { return cluster_space_; }  ///< 2^d
  std::uint64_t capacity() const { return cluster_space_ * cfg_.dimension; }
  const Config& config() const { return cfg_; }

  /// Estimated resident bytes of the overlay state (slot slab, cluster
  /// oracle, address index) — fig_scale's footprint column.
  std::size_t ApproxMemoryBytes() const;

 private:
  using Route = RingRoute<CycloidNetwork, CycloidNode, MembershipObserver,
                          std::allocator<CycloidNode>, CycloidWalk>;
  friend Route;
  static constexpr const char* kMetricPrefix = "cycloid";
  using Cluster = std::map<unsigned, Slot>;  // cyclic index -> slot

  /// Oracle helpers over the cluster index.
  const Cluster& MustCluster(std::uint64_t a) const;
  std::uint64_t OwnerClusterCubical(std::uint64_t a) const;
  Slot OwnerInCluster(const Cluster& c, unsigned k) const;
  Slot PrimaryOf(const Cluster& c) const;
  std::uint64_t PrecedingClusterCubical(std::uint64_t a) const;
  std::uint64_t SucceedingClusterCubical(std::uint64_t a) const;

  void BuildState(Node& n);
  /// Rebuilds the state of every node in the cluster at `a` and in both
  /// adjacent clusters — the scope a graceful join/leave notifies.
  void RepairAround(std::uint64_t a);

  /// One local routing decision; returns kNoSlot if the node believes it is
  /// the owner. `force_walk` switches to the guaranteed cluster walk.
  Slot NextHopSlot(const Node& n, CycloidId key, bool force_walk) const;

  CycloidId NormalizeKey(CycloidId key) const {
    return CycloidId{key.k % cfg_.dimension, key.a % cluster_space_};
  }
  /// (cubical, cyclic) packed as one route-cache key; unique because k < d.
  std::uint64_t CacheKey(CycloidId key) const {
    return key.a * cfg_.dimension + key.k;
  }
  void BeginWalk(LookupState& st) const;
  /// One iteration of the lookup loop (hop, cache shortcut, or
  /// termination); returns false when the walk completed.
  bool StepOnce(LookupState& st, LookupResult& r) const;

  /// True iff `key` is in the node's (cluster, cyclic) sector, judged from
  /// the node's own leaf-set state.
  bool OwnsNode(const Node& n, CycloidId key) const;

  /// True iff the node's cluster owns cubical value `a`, judged from the
  /// node's own outside leaf set.
  bool ClusterOwnsLocal(const Node& n, std::uint64_t a) const;

  Config cfg_;
  std::uint64_t cluster_space_;
  std::map<std::uint64_t, Cluster> clusters_;   // oracle index
};

/// Evenly populates a Cycloid with `n` nodes (addresses base..base+n-1) over
/// its d * 2^d positions. With n == capacity this is the paper's fully
/// populated overlay.
///
/// Built through the bulk path (BulkAssign): the converged routing state of
/// n sequential joins plus StabilizeAll, without per-join neighborhood
/// repairs. This is what lets the scale sweeps reach n = 10^6. The
/// maintenance meter bills the closing stabilization round only, not n
/// join messages.
CycloidNetwork MakeCycloid(std::size_t n, Config cfg, NodeAddr base_addr = 0);

/// Smallest dimension whose capacity d * 2^d is >= n (for network-size sweeps).
unsigned DimensionFor(std::size_t n);

}  // namespace lorm::cycloid

namespace lorm {
extern template class RingRoute<cycloid::CycloidNetwork, cycloid::CycloidNode,
                                cycloid::MembershipObserver,
                                std::allocator<cycloid::CycloidNode>,
                                cycloid::CycloidWalk>;
}  // namespace lorm
