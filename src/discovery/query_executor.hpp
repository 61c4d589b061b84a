// The one multi-attribute query executor every discovery service runs:
// DirectoryService<Key>::ExecuteQuery, declared in directory_service.hpp and
// defined here. A service's .cpp includes this header where its Query()
// calls the executor.
//
// The five systems differ only in where a tuple is placed and how one
// sub-query is routed, walked and probed (paper §II). Everything around that
// is common and lives here once: the requester check, the joined and
// per-sub result caches, the per-sub trace records and cost accounting, the
// requester-side deduplication, the "database-like join on ip_addr" (§III),
// the soft-state liveness filter and the per-query instruments.
//
// A service hands the executor its ResolveSub as a template argument:
//
//   resolve_sub(requester, sub, lo, hi, dominated, matches, stats, scratch)
//
// routes sub-query `sub` (ordinal range [lo, hi]) from `requester`, walks
// and probes, appending raw matches and billing lookups, hops, visited nodes
// and walk steps to `stats` (stats.failed on a failed route or walk). The
// executor dedups the matches and caches them when that sub-query itself
// resolved completely, whatever happened to the query's other sub-queries.
//
// Execution order:
//
//   * classic (no planner): sub-queries in query order, every one resolved,
//     joined at the end (JoinProviders); the trace carries no planner
//     fields, so its bytes are those of the original classic loop;
//   * planned (`--plan`): most-selective-first (planner.hpp), intersecting
//     provider sets incrementally and skipping the remaining sub-queries
//     once the intersection is empty. `dominated` is set on every sub-query
//     after the first — a more selective one already ran — and MAAN-placement
//     systems answer those at the attribute root alone; the others ignore it.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "discovery/directory_service.hpp"
#include "discovery/join.hpp"
#include "discovery/planner.hpp"
#include "discovery/query_obs.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"

namespace lorm::discovery {

// Each service calls this from one place with its own resolver type, so the
// function-local instruments below exist once per service type.
template <typename Key>
template <typename ResolveSub>
QueryResult DirectoryService<Key>::ExecuteQuery(
    const resource::MultiQuery& q, QueryScratch& scratch,
    ResolveSub&& resolve_sub) const {
  QueryResult result;
  LORM_CHECK_MSG(HasNode(q.requester),
                 "requester is not a member of the overlay");
  const std::size_t k = q.subs.size();
  QueryStats& stats = result.stats;
  PlanScratch& ps = scratch.plan;
  ComputeSubRanges(registry_, q, ps);

  const bool joined = result_cache_.enabled() && k > 0;
  if (joined) CanonicalSubKeys(q, ps);
  if (joined && JoinedCacheFetch(result_cache_, ps, k, result.per_sub,
                                 result.providers)) {
    // A whole-query hit still opens one (empty) trace record per sub-query.
    for (const auto& sub : q.subs) {
      const obs::SubQueryScope sub_trace(sub.attr);
    }
    stats.sub_costs.assign(k, 0);
  } else {
    if (plan_) {
      PlanOrder(selectivity_, q, ps);
      obs::OnPlanOrder(ps.order.data(), ps.order.size());
      ps.candidates.clear();
    }
    result.per_sub.resize(k);
    stats.sub_costs.assign(k, 0);
    bool pruned = false;
    for (std::size_t rank = 0; rank < k; ++rank) {
      const std::size_t idx = plan_ ? ps.order[rank] : rank;
      const resource::SubQuery& sub = q.subs[idx];
      const obs::SubQueryScope sub_trace(sub.attr);
      if (pruned) {
        // The join is already empty; this sub-query cannot resurrect it.
        obs::OnSubQueryCandidates(0);
        TickPlanSubsSkipped(1);
        continue;
      }
      const double lo = ps.lo[idx];
      const double hi = ps.hi[idx];
      std::vector<resource::ResourceInfo>& matches = result.per_sub[idx];
      // A per-sub cache hit costs nothing: no routing, no walk, no probes.
      // The cached matches are exactly what a fresh resolution would find
      // (the range root depends on the range, never on the requester).
      if (!result_cache_.enabled() ||
          !result_cache_.Lookup(sub.attr, lo, hi, matches)) {
        const HopCount cost_before =
            stats.dht_hops + static_cast<HopCount>(stats.walk_steps);
        const bool failed_before = stats.failed;
        stats.failed = false;
        resolve_sub(q.requester, sub, lo, hi, /*dominated=*/plan_ && rank > 0,
                    matches, stats, scratch);
        const bool sub_failed = stats.failed;
        stats.failed = failed_before || sub_failed;
        DedupMatches(matches);  // replicas may repeat tuples along a walk
        // Only a sub-query that itself resolved completely is cacheable: a
        // failed route or a truncated walk would freeze an incomplete answer,
        // also when an earlier sub-query of this query already failed.
        if (!sub_failed) result_cache_.Store(sub.attr, lo, hi, matches);
        stats.sub_costs[idx] = stats.dht_hops +
                               static_cast<HopCount>(stats.walk_steps) -
                               cost_before;
      }

      if (!plan_) continue;
      // Planned: intersect incrementally, in the scratch buffers.
      ProvidersOf(matches, ps.providers);
      if (rank == 0) {
        ps.candidates = ps.providers;
      } else {
        IntersectSorted(ps.candidates, ps.providers, ps.tmp);
      }
      obs::OnSubQueryCandidates(ps.candidates.size());
      if (ps.candidates.empty() && rank + 1 < k) {
        pruned = true;
        TickPlanEarlyExit();
        if (obs::FlightEnabled()) {
          obs::RecordFlight(obs::FlightEventKind::kPlannerEarlyExit, name_,
                            q.requester, rank + 1, k - rank - 1);
        }
      }
    }

    // Classic: join every sub-query's matches at once, in fresh buffers, so
    // a query's allocations do not depend on the queries before it.
    result.providers = plan_ ? ps.candidates : JoinProviders(result.per_sub);
    // Soft-state filtering: drop providers that have departed since they
    // advertised (their stale entries expire with periodic re-advertisement).
    std::erase_if(result.providers, [&](NodeAddr p) { return !HasNode(p); });
    if (joined && !stats.failed && !pruned) {
      JoinedCacheStore(result_cache_, ps, result.per_sub, result.providers);
    }
  }
  static QueryInstruments instruments(name_);
  instruments.Record(stats);
  return result;
}

}  // namespace lorm::discovery
