// The common interface of the five resource-discovery systems.
//
// Each implementation owns its DHT substrate(s) and its directory state:
//
//   LormService    — one Cycloid (the paper's contribution)
//   MercuryService — m Chord rings, one per attribute
//   SwordService   — one Chord ring, attribute-rooted directories
//   MaanService    — one Chord ring, dual attribute/value placement
//   D1htService    — MAAN's placement template on one single-hop ring (the
//                    maintenance-heavy end of the design space)
//
// All five expose identical advertise/query/membership operations so the
// experiment harnesses and examples can drive them interchangeably. They
// share their directory state, placement path and membership path
// (directory_service.hpp) and one query executor (query_executor.hpp); each
// contributes only its ring(s), the placements of one tuple, the root
// lookups of one sub-query and how it walks and probes from their owners.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "chord/chord.hpp"
#include "common/ring_route.hpp"
#include "common/types.hpp"
#include "cycloid/cycloid.hpp"
#include "discovery/join.hpp"
#include "discovery/planner.hpp"
#include "discovery/stats.hpp"
#include "resource/query.hpp"
#include "singlehop/singlehop.hpp"

namespace lorm::discovery {

/// Cumulative entry-movement cost of the replication protocol's ownership
/// handoff (joins, leaves, crash restores). `bytes_moved` models each moved
/// entry at a fixed wire size — the bytes-moved-per-join maintenance metric
/// of the replication experiment.
struct ReplicationStats {
  std::uint64_t entries_moved = 0;
  std::uint64_t bytes_moved = 0;
};

/// Result of a multi-attribute query.
struct QueryResult {
  /// Providers satisfying every sub-query (the database-like join);
  /// sorted, deduplicated, and filtered to currently live providers.
  std::vector<NodeAddr> providers;
  /// Raw matches of each sub-query, in sub-query order.
  std::vector<std::vector<resource::ResourceInfo>> per_sub;
  QueryStats stats;
};

/// Caller-owned scratch space for Query(). Reusing one scratch per thread
/// keeps the steady-state query path free of heap allocation: the lanes'
/// path vectors, the plan buffers and the dedup and join buffers keep
/// their capacity across queries, so a warm classic query allocates only
/// the result it returns. Not thread-safe; give each replay worker its own.
struct QueryScratch {
  /// Single lookup results for callers that route one sub-query at a time
  /// through a service's overlay (perfbench's layer replay).
  chord::LookupResult chord;
  cycloid::LookupResult cycloid;
  /// The executor's buffers: every query's ordinal ranges; the execution
  /// order and incremental join with `--plan`; the order-independent
  /// joined-cache key with `--cache`.
  PlanScratch plan;
  /// The executor's sub-query matches before dedup, the dedup's keys and
  /// the classic join's provider sets.
  JoinScratch join;
  /// The executor's root-lookup lanes (`sub` is the sub-query each serves),
  /// one vector per ring type.
  std::tuple<std::vector<RouteLane<chord::ChordRing>>,
             std::vector<RouteLane<cycloid::CycloidNetwork>>,
             std::vector<RouteLane<singlehop::SingleHopRing>>>
      lanes;
};

class DiscoveryService {
 public:
  virtual ~DiscoveryService() = default;

  virtual std::string name() const = 0;

  // ---- Membership (a grid node joins/leaves with its resources) ---------

  /// Returns false if the overlay's identifier space is exhausted (a full
  /// Cycloid holds at most d * 2^d nodes); the join is rejected.
  virtual bool JoinNode(NodeAddr addr) = 0;
  /// Graceful departure: directory entries re-home; the departing
  /// provider's own advertisements are withdrawn.
  virtual void LeaveNode(NodeAddr addr) = 0;
  /// Abrupt failure. With replicas == 1 there is no handoff — the node's
  /// directory entries are lost until their providers re-advertise (soft
  /// state). With replicas > 1 the successor-list replication protocol
  /// restores coverage from the surviving copies (see
  /// discovery/replication.hpp); only entries whose every replica holder
  /// crashed are lost. Either way the node's overlay neighbors route
  /// around the stale links until Maintain() heals them.
  virtual void FailNode(NodeAddr addr) = 0;
  virtual bool HasNode(NodeAddr addr) const = 0;
  virtual std::size_t NetworkSize() const = 0;
  virtual std::vector<NodeAddr> Nodes() const = 0;

  /// One maintenance round (stabilization / self-organization).
  virtual void Maintain() = 0;

  /// Total overlay maintenance messages spent so far (joins + leaves +
  /// stabilization) — the structure-maintenance overhead behind Thm 4.1.
  virtual std::uint64_t MaintenanceMessages() const = 0;

  /// Modeled wire size of one maintenance message: header + node id +
  /// address + event payload. Fixed so MaintenanceBytes() is a
  /// deterministic multiple of MaintenanceMessages() — differentiation
  /// between systems comes from message *counts* (Θ(log n) per Chord event
  /// vs Θ(n) per single-hop event), not per-message sizes.
  static constexpr std::uint64_t kMaintenanceMessageBytes = 64;

  /// Total overlay maintenance traffic in modeled bytes — the
  /// bytes/node/s axis of the maintenance-vs-lookup tradeoff table.
  virtual std::uint64_t MaintenanceBytes() const {
    return MaintenanceMessages() * kMaintenanceMessageBytes;
  }

  // ---- Resource information ---------------------------------------------

  /// Routes one advertised tuple from its provider to the responsible
  /// directory node. Returns the routing hops spent. The stored entry is
  /// stamped with the current soft-state epoch. When the route fails (LORM's
  /// Cycloid lookups can, through crashed nodes not yet repaired), nothing
  /// is stored, the result cache is left alone, and the hops spent are
  /// returned: the provider's next periodic re-advertisement places the
  /// tuple (soft state, below). The Chord-keyed systems' lookups fall back
  /// on successor lists or the full table, so a live provider's route
  /// cannot fail there; they keep checking it as an invariant.
  virtual HopCount Advertise(const resource::ResourceInfo& info) = 0;

  /// Advertises every tuple of `infos`, in order, as one Advertise each
  /// would; returns the hops spent in all. The five services route the
  /// block's placements together (directory_service.hpp).
  virtual HopCount AdvertiseAll(std::span<const resource::ResourceInfo> infos) {
    HopCount total = 0;
    for (const resource::ResourceInfo& info : infos) total += Advertise(info);
    return total;
  }

  // ---- Soft state (periodic re-advertisement, paper §III) -----------------
  //
  // "A node reports its available resources to the system periodically."
  // Each reporting period is an epoch: bump the epoch, have providers
  // re-advertise, then expire everything older — entries of departed or
  // failed providers age out instead of lingering forever.

  virtual void SetEpoch(std::uint64_t epoch) = 0;
  virtual std::uint64_t CurrentEpoch() const = 0;
  /// Drops entries stamped with an epoch < `cutoff`; returns how many.
  virtual std::size_t ExpireEntriesBefore(std::uint64_t cutoff) = 0;

  // ---- Queries ------------------------------------------------------------

  /// Resolves a multi-attribute (range) query from q.requester, which must
  /// be a member node. Sub-queries are conceptually parallel; stats
  /// aggregate over all of them. `scratch` provides the reusable lookup
  /// buffers; hot replay loops keep one per worker thread.
  virtual QueryResult Query(const resource::MultiQuery& q,
                            QueryScratch& scratch) const = 0;

  /// Convenience overload with throwaway scratch (tests, examples, one-off
  /// queries).
  QueryResult Query(const resource::MultiQuery& q) const {
    QueryScratch scratch;
    return Query(q, scratch);
  }

  // ---- Metrics for the experiment harnesses -------------------------------

  /// Directory size of every member node (zeros included) — Fig. 3(b-d).
  virtual std::vector<double> DirectorySizes() const = 0;
  /// Query-processing load: how many times each member node was visited
  /// (root or range-walk probe) by queries since the last reset. Order
  /// matches Nodes(). Exposes who actually absorbs the query traffic —
  /// the popularity-skew ablation's metric.
  virtual std::vector<double> QueryLoadCounts() const = 0;
  virtual void ResetQueryLoad() = 0;
  /// Out-link count of every member node — Fig. 3(a). For Mercury this sums
  /// over all m rings.
  virtual std::vector<double> OutlinkCounts() const = 0;
  /// Total stored resource-information pieces (Theorem 4.2: MAAN stores 2x).
  virtual std::size_t TotalInfoPieces() const = 0;
  /// Cumulative handoff work done by the replication protocol (zero with
  /// replicas == 1, where membership events never copy entries).
  virtual ReplicationStats ReplicationWork() const { return {}; }
};

}  // namespace lorm::discovery
