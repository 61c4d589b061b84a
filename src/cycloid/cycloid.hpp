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
// generation-checked `SlotLink`s (common/slot_slab.hpp), as on ChordRing.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "cache/route_cache.hpp"
#include "common/maintenance.hpp"
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

struct LookupResult {
  bool ok = false;
  CycloidId key;
  NodeAddr owner = kNoNode;
  HopCount hops = 0;
  std::vector<NodeAddr> path;  ///< origin first, owner last
  /// Hops taken through route-cache shortcuts (0 with the cache off).
  std::uint64_t cache_hits = 0;
};

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

class CycloidNetwork {
 public:
  /// Index into the node slot slab. Public so resumable lookup state (and
  /// the batch engine built on it) can carry slab positions across steps.
  using Slot = SlabSlot;
  static constexpr Slot kNoSlot = kNoSlabSlot;

  /// Aliases the batch engine templates over (chord uses the same names).
  using LookupKeyType = CycloidId;
  using LookupResultType = LookupResult;

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

  std::size_t size() const { return slab_.size(); }
  bool Contains(NodeAddr addr) const { return slab_.Contains(addr); }
  std::vector<NodeAddr> Members() const;

  // ---- Structure queries --------------------------------------------------

  CycloidId IdOf(NodeAddr addr) const;
  /// Oracle: the node currently owning `key`.
  NodeAddr OwnerOf(CycloidId key) const;
  /// True iff `key` is in the node's (cluster, cyclic) sector, judged from
  /// the node's own leaf-set state.
  bool Owns(NodeAddr addr, CycloidId key) const;

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

  /// Routes from `origin` to the owner of `key` using only per-node state.
  LookupResult Lookup(CycloidId key, NodeAddr origin) const;

  /// Same walk, but reuses `out` (notably its path buffer) instead of
  /// returning a fresh result: after warm-up the steady-state query path
  /// performs no heap allocation. Implemented as LookupBegin + LookupStep
  /// to exhaustion + LookupFinish — the resumable API below is the walk.
  void LookupInto(CycloidId key, NodeAddr origin, LookupResult& out) const;

  // ---- Resumable lookup (single-hop state machine) ------------------------
  //
  // Exact decomposition of the monolithic walk (see chord.hpp for the
  // contract); the extra fields carry Cycloid's sticky walk-mode fallback
  // and backtrack detection across steps.

  /// One in-flight walk. Plain value state; reusable across lookups. The
  /// bound LookupResult must outlive the walk (Begin .. Finish).
  struct LookupState {
    LookupResult* out = nullptr;   ///< bound result, valid Begin..Finish
    Slot cur = kNoSlot;            ///< slab position of the walk head
    Slot prev = kNoSlot;           ///< previous hop (backtrack detection)
    std::size_t structured_cap = 0;  ///< budget before forcing walk mode
    std::size_t total_cap = 0;       ///< routing-failure cap for this walk
    bool walk_mode = false;        ///< sticky cluster-walk fallback engaged
    bool done = true;              ///< no more steps (out->ok says how)
    /// Dead links this walk detected (accumulated per step — exact even
    /// when walks interleave over the shared counter).
    std::uint64_t dead_skips = 0;
    std::uint64_t start_ns = 0;    ///< trace timestamp (0 when tracing off)
  };

  /// Binds `out` to `st` and positions the walk at `origin`. A missing
  /// origin completes the walk immediately (ok stays false).
  void LookupBegin(CycloidId key, NodeAddr origin, LookupResult& out,
                   LookupState& st) const;

  /// Advances the walk by at most one hop; false once it completed.
  bool LookupStep(LookupState& st) const;

  /// Completes the walk: route-cache teaching + metrics/trace reporting.
  /// Must be called exactly once per Begin.
  void LookupFinish(LookupState& st) const;

  /// Prefetches the slab lines the next LookupStep will read. Stages:
  ///   0 — the current node's slab header (all 7 links are inline);
  ///   1 — leaf-set / cubical targets (OwnsNode + structured routing);
  ///   2 — cyclic/outside targets (the cluster-walk fallback reads).
  /// Pure prefetch: no observable effect, safe to skip or repeat.
  void LookupPrefetch(const LookupState& st, unsigned stage) const;

  /// Warms the membership-table probe line for a LookupBegin(.., origin, ..)
  /// issued later: a batch engine calls this one refill ahead so the next
  /// request's origin->slot resolution overlaps the walks in flight. Pure
  /// prefetch, no observable effect.
  void PrefetchOrigin(NodeAddr origin) const { slab_.PrefetchFind(origin); }

  // ---- Maintenance --------------------------------------------------------

  /// Maintenance round over every node (self-organization fixed point).
  void StabilizeAll();

  void AddObserver(MembershipObserver* obs);
  void RemoveObserver(MembershipObserver* obs);

  const MaintenanceStats& maintenance() const { return maintenance_; }
  void ResetMaintenanceStats() { maintenance_ = {}; }

  unsigned dimension() const { return cfg_.dimension; }
  std::uint64_t cluster_space() const { return cluster_space_; }  ///< 2^d
  std::uint64_t capacity() const { return cluster_space_ * cfg_.dimension; }
  const Config& config() const { return cfg_; }

  /// Estimated resident bytes of the overlay state (slot slab, cluster
  /// oracle, address index) — fig_scale's footprint column.
  std::size_t ApproxMemoryBytes() const;

 private:
  using Link = SlotLink<CycloidId>;  ///< a null entry is Link{}

  struct Node {
    CycloidId id;
    NodeAddr addr = kNoNode;
    std::uint32_t gen = 0;  ///< bumped every time the slot is vacated
    /// Keeps the links at offset 32 and the node at four cache lines; the
    /// unpadded 248-byte node measured slower LORM lookups in fig_scale.
    std::uint64_t pad = 0;
    Link inside_succ;
    Link inside_pred;
    Link outside_succ;  // primary of succeeding cluster
    Link outside_pred;  // primary of preceding cluster
    Link cubical;       // flips bit k-1 (null when k == 0)
    Link cyclic_succ;   // ~k-1 in succeeding cluster
    Link cyclic_pred;   // ~k-1 in preceding cluster
  };
  static_assert(sizeof(Node) == 256, "Node must stay four cache lines");

  using Cluster = std::map<unsigned, Slot>;  // cyclic index -> slot

  /// Seats a member in the slab and sizes its route-cache block;
  /// ReleaseSlot vacates it and drops what it had learned.
  Slot AllocateSlot(NodeAddr addr, CycloidId id);
  void ReleaseSlot(Slot s);

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

  /// One iteration of the lookup loop (hop, cache shortcut, or
  /// termination); returns false when the walk completed.
  bool StepOnce(LookupState& st, LookupResult& r) const;

  bool OwnsNode(const Node& n, CycloidId key) const;

  /// True iff the node's cluster owns cubical value `a`, judged from the
  /// node's own outside leaf set.
  bool ClusterOwnsLocal(const Node& n, std::uint64_t a) const;

  Config cfg_;
  std::uint64_t cluster_space_;
  SlotSlab<Node> slab_{"unknown cycloid node"};
  std::map<std::uint64_t, Cluster> clusters_;   // oracle index
  std::vector<MembershipObserver*> observers_;
  mutable MaintenanceStats maintenance_;  // mutable: routing is const
  /// Learned shortcuts (cfg_.route_cache); mutable: lookups teach it.
  mutable cache::RouteCacheTable<Link> route_cache_;
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
