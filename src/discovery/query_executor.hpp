// The one multi-attribute query executor every discovery service runs:
// DirectoryService<Ring>::ExecuteQuery, declared in directory_service.hpp and
// defined here. A service's .cpp includes this header where its Query()
// calls the executor.
//
// The five systems differ only in where a tuple is placed and how one
// sub-query is routed, walked and probed (paper §II). Everything around that
// is common and lives here once: the requester check, the routing of every
// root lookup, the joined and per-sub result caches, the per-sub trace
// records and cost accounting, the requester-side deduplication, the
// "database-like join on ip_addr" (§III), the soft-state liveness filter
// and the per-query instruments.
//
// A service (a friend of its DirectoryService base) supplies two members:
//
//   RootLookups(sub, lo, dominated, add)
//     names the root lookups of sub-query `sub` (ordinal range from `lo`)
//     in routing order, calling add(ring, key) once each: one for LORM,
//     Mercury and SWORD, two for MAAN and D1HT (the attribute root, then
//     the value root), only the attribute root for a dominated MAAN or D1HT
//     sub-query;
//   ResolveSub(sub, lo, hi, dominated, roots, matches, stats)
//     walks and probes range [lo, hi] from the owners those lookups found
//     (roots[i].result, in naming order), appending raw matches and billing
//     visited nodes and walk steps to `stats` (stats.failed on a failed
//     walk).
//
// The executor routes each root lookup from the requester and bills it
// (one lookup, its hops, stats.failed when it fails), collects the raw
// matches in QueryScratch, dedups them into the result's exactly sized
// per-sub list (join.hpp) and caches that list when the sub-query itself
// resolved completely, whatever happened to the query's other sub-queries.
// The classic join also runs in QueryScratch, so a warm classic query
// allocates only its result: per_sub and stats.sub_costs, each non-empty
// per-sub list and a non-empty provider list.
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
//
// Routing order. A classic query with the result cache and every ring's
// route cache off routes every sub-query, and no route can change another
// (routes only read the rings; the route cache is the one thing a lookup
// writes). Such a query begins all of its root lookups together
// (LookupBegin, into lanes held in QueryScratch) and steps them round-robin,
// prefetching the lines each walk's next step reads (LookupPrefetch stage
// 0) while the others step, so their cache misses overlap — the sub-queries
// resolve in parallel, as the paper has them. Then it takes the sub-queries
// in query order: inside each one's SubQueryScope, LookupFinish on its
// lanes (trace record, `<ring>.lookup.*` metrics), billing, then the walk
// and probes. Every other query runs the same steps one lookup at a time,
// finishing each before the next begins: a planned query may skip
// sub-queries, a per-sub cache hit skips routing, and a route-cache lookup
// teaches shortcuts that later lookups take. Either way every lookup,
// result, trace line and counter is what routing one lookup after another
// gives.
#pragma once

#include <cstddef>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "discovery/directory_service.hpp"
#include "discovery/join.hpp"
#include "discovery/planner.hpp"
#include "discovery/query_obs.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"

namespace lorm::discovery {

/// Begins lanes[0, n) from `origin` and steps them round-robin until every
/// walk completed; after each step a walk prefetches what its next step
/// reads, so the lines load while the other walks step.
template <typename Ring>
void RouteRootLanes(RootLane<Ring>* lanes, std::size_t n, NodeAddr origin) {
  for (std::size_t l = 0; l < n; ++l) {
    RootLane<Ring>& lane = lanes[l];
    lane.ring->LookupBegin(lane.key, origin, lane.result, lane.state);
    lane.ring->LookupPrefetch(lane.state, 0);
  }
  for (bool more = true; more;) {
    more = false;
    for (std::size_t l = 0; l < n; ++l) {
      RootLane<Ring>& lane = lanes[l];
      if (lane.ring->LookupStep(lane.state)) {
        lane.ring->LookupPrefetch(lane.state, 0);
        more = true;
      }
    }
  }
}

// Each service calls this from one place with its own type, so the
// function-local instruments below exist once per service type.
template <typename Ring>
template <typename Service>
QueryResult DirectoryService<Ring>::ExecuteQuery(
    const resource::MultiQuery& q, QueryScratch& scratch,
    const Service& svc) const {
  QueryResult result;
  LORM_CHECK_MSG(HasNode(q.requester),
                 "requester is not a member of the overlay");
  const std::size_t k = q.subs.size();
  QueryStats& stats = result.stats;
  PlanScratch& ps = scratch.plan;
  JoinScratch& js = scratch.join;
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

    // Root lookups go into lanes [0, named), each tagged with its sub-query.
    std::vector<RootLane<Ring>>& lanes =
        std::get<std::vector<RootLane<Ring>>>(scratch.lanes);
    std::size_t named = 0;
    const auto name_roots = [&](std::size_t idx, bool dominated) {
      svc.RootLookups(q.subs[idx], ps.lo[idx], dominated,
                      [&](const Ring& ring, typename Ring::LookupKeyType key) {
                        if (named == lanes.size()) lanes.emplace_back();
                        RootLane<Ring>& lane = lanes[named++];
                        lane.ring = &ring;
                        lane.key = key;
                        lane.sub = idx;
                      });
    };
    // Overlapped routing (see the file comment): every root lookup of the
    // query is in flight before the first sub-query's turn.
    bool overlap = !plan_ && !result_cache_.enabled();
    if (overlap) {
      for (std::size_t idx = 0; idx < k; ++idx) name_roots(idx, false);
      for (std::size_t l = 0; l < named && overlap; ++l) {
        overlap = !lanes[l].ring->RouteCacheEnabled();
      }
      if (overlap) RouteRootLanes(lanes.data(), named, q.requester);
    }
    std::size_t next_lane = 0;  // overlapped: the next sub-query's first lane

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
        const bool dominated = plan_ && rank > 0;
        if (!overlap) {
          named = next_lane = 0;
          name_roots(idx, dominated);
        }
        const std::size_t first = next_lane;
        for (; next_lane < named && lanes[next_lane].sub == idx; ++next_lane) {
          RootLane<Ring>& lane = lanes[next_lane];
          // One lookup in flight routes in lane 0's path buffer: a query that
          // never overlaps keeps one warm buffer, as one reused result would,
          // not one per lane.
          if (!overlap) {
            lane.result.path.swap(lanes[0].result.path);
            RouteRootLanes(&lane, 1, q.requester);
          }
          lane.ring->LookupFinish(lane.state);
          if (!overlap) lane.result.path.swap(lanes[0].result.path);
          stats.lookups += 1;
          stats.dht_hops += lane.result.hops;
          if (!lane.result.ok) stats.failed = true;
        }
        js.raw.clear();
        svc.ResolveSub(sub, lo, hi, dominated, lanes.data() + first, js.raw,
                       stats);
        const bool sub_failed = stats.failed;
        stats.failed = failed_before || sub_failed;
        // Replicas may repeat tuples along a walk.
        DedupMatches(js.raw, js.keys, matches);
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

    // Classic: join every sub-query's matches at once, in the scratch.
    result.providers =
        plan_ ? ps.candidates : JoinProviders(result.per_sub, js);
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
