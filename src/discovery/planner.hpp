// Selectivity-driven multi-attribute query planning (`--plan`), run by the
// query executor every discovery service shares (query_executor.hpp).
//
// The plan itself is trivial database machinery applied to the paper's
// workload: estimate each sub-query's match count from the directory-fed
// histograms (selectivity.hpp), execute sub-queries most-selective-first,
// intersect provider sets incrementally, and stop routing the moment the
// running candidate set goes empty — the remaining sub-queries cannot
// change an empty join. MAAN's "single-attribute dominated query" is the
// same idea specialized to one system; here it becomes a planning layer
// every service shares.
//
// Everything lives in caller-owned PlanScratch so the warm planned path
// stays allocation-free, mirroring QueryScratch for lookups.
//
// Counters (lazily interned; plan-off runs leave the registry untouched):
//   lorm.plan.queries       planned queries executed
//   lorm.plan.reordered     queries whose execution order != query order
//   lorm.plan.early_exits   queries that stopped on an empty candidate set
//   lorm.plan.subs_skipped  sub-queries never executed thanks to the exit
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "cache/result_cache.hpp"
#include "common/types.hpp"
#include "discovery/selectivity.hpp"
#include "obs/metrics.hpp"
#include "resource/attribute.hpp"
#include "resource/query.hpp"

namespace lorm::discovery {

/// Reusable buffers for one planned query execution.
struct PlanScratch {
  std::vector<double> lo;          ///< per-sub ordinal range, query order
  std::vector<double> hi;
  std::vector<double> estimates;   ///< per-sub match estimate, query order
  std::vector<std::uint32_t> order;  ///< execution order (sub indices)
  std::vector<NodeAddr> candidates;  ///< running provider intersection
  std::vector<NodeAddr> providers;   ///< one sub's provider set
  std::vector<NodeAddr> tmp;         ///< intersection scratch
  std::vector<cache::JoinedKey> keys;      ///< canonical joined-cache key
  std::vector<cache::JoinedKey> keys_tmp;  ///< reorder scratch
  std::vector<std::uint32_t> canon_orig;   ///< keys[j] came from sub orig[j]
};

inline void TickPlanQuery() {
  if (!obs::MetricsEnabled()) return;
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("lorm.plan.queries");
  c.AddUnchecked(1);
}

inline void TickPlanReordered() {
  if (!obs::MetricsEnabled()) return;
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("lorm.plan.reordered");
  c.AddUnchecked(1);
}

inline void TickPlanEarlyExit() {
  if (!obs::MetricsEnabled()) return;
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("lorm.plan.early_exits");
  c.AddUnchecked(1);
}

inline void TickPlanSubsSkipped(std::size_t count) {
  if (count == 0 || !obs::MetricsEnabled()) return;
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("lorm.plan.subs_skipped");
  c.AddUnchecked(static_cast<std::uint64_t>(count));
}

/// Fills ps.lo/ps.hi with each sub-query's ordinal range, in query order.
inline void ComputeSubRanges(const resource::AttributeRegistry& registry,
                             const resource::MultiQuery& q, PlanScratch& ps) {
  const std::size_t k = q.subs.size();
  ps.lo.resize(k);
  ps.hi.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    const auto& schema = registry.Get(q.subs[i].attr);
    ps.lo[i] = schema.OrdinalOf(q.subs[i].range.lo);
    ps.hi[i] = schema.OrdinalOf(q.subs[i].range.hi);
  }
}

/// Orders sub-query indices by ascending estimated match count (stable, so
/// ties keep query order). Requires ComputeSubRanges first. Ticks the
/// planner counters.
inline void PlanOrder(const SelectivityEstimator& est,
                      const resource::MultiQuery& q, PlanScratch& ps) {
  const std::size_t k = q.subs.size();
  ps.estimates.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    ps.estimates[i] = est.EstimateMatches(q.subs[i].attr, ps.lo[i], ps.hi[i]);
  }
  ps.order.resize(k);
  std::iota(ps.order.begin(), ps.order.end(), 0u);
  std::stable_sort(ps.order.begin(), ps.order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return ps.estimates[a] < ps.estimates[b];
                   });
  TickPlanQuery();
  if (!std::is_sorted(ps.order.begin(), ps.order.end())) TickPlanReordered();
}

/// Fills ps.keys with the sub-queries' joined-cache keys in canonical
/// (sorted) order and ps.canon_orig with each key's original sub index, so
/// planned and unplanned executions of the same query — in any sub order —
/// address the same cache entry. Requires ComputeSubRanges first.
inline void CanonicalSubKeys(const resource::MultiQuery& q, PlanScratch& ps) {
  const std::size_t k = q.subs.size();
  ps.keys.resize(k);
  ps.canon_orig.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    ps.keys[i] = cache::ResultCache::MakeJoinedKey(q.subs[i].attr, ps.lo[i],
                                                   ps.hi[i]);
    ps.canon_orig[i] = static_cast<std::uint32_t>(i);
  }
  std::stable_sort(ps.canon_orig.begin(), ps.canon_orig.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return ps.keys[a] < ps.keys[b];
                   });
  ps.keys_tmp.clear();
  for (const std::uint32_t i : ps.canon_orig) ps.keys_tmp.push_back(ps.keys[i]);
  ps.keys.swap(ps.keys_tmp);
}

/// Whole-query joined-cache probe. Sizes `per_sub` to the k sub-queries;
/// on a hit, copies the cached lists straight into it in query order, and
/// the providers into `providers`, and returns true. No buffer of the
/// scratch passes through, so what a hit allocates never depends on the
/// queries before it. Requires CanonicalSubKeys first. Only call when the
/// cache is enabled.
inline bool JoinedCacheFetch(
    const cache::ResultCache& cache, PlanScratch& ps, std::size_t k,
    std::vector<std::vector<resource::ResourceInfo>>& per_sub,
    std::vector<NodeAddr>& providers) {
  per_sub.resize(k);
  return cache.LookupJoined(ps.keys, ps.canon_orig, per_sub, providers);
}

/// Stores a fully resolved query into the joined cache, which keeps the
/// query-order per-sub lists in canonical key order. Requires
/// CanonicalSubKeys first.
inline void JoinedCacheStore(
    cache::ResultCache& cache, PlanScratch& ps,
    const std::vector<std::vector<resource::ResourceInfo>>& per_sub,
    const std::vector<NodeAddr>& providers) {
  cache.StoreJoined(ps.keys, ps.canon_orig, per_sub, providers);
}

}  // namespace lorm::discovery
