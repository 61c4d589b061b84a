// Shared sweep used by the Figure 4 (non-range hops) and Figure 5 (range
// visited-nodes) benches: all four systems are built once at the paper's
// configuration, then queried with 1..10-attribute queries, 100 requesters x
// 10 queries per point (paper §V-B).
#pragma once

#include <algorithm>
#include <map>

#include "fig_common.hpp"

namespace lorm::bench {

struct SweepPoint {
  std::size_t attrs = 0;
  /// Per-system averages per query of the chosen metric.
  std::map<harness::SystemKind, double> value;
};

enum class Metric { kAvgHops, kTotalHops, kAvgVisited, kTotalVisited };

inline std::vector<SweepPoint> RunQuerySweep(
    const harness::Setup& setup, const resource::Workload& workload,
    const std::vector<harness::SystemKind>& kinds, bool range, Metric metric,
    const std::vector<std::size_t>& attr_counts,
    std::size_t requesters = 100, std::size_t queries_each = 10,
    std::size_t jobs = 1) {
  // Build & populate each system once; reuse across the sweep. The builds
  // are independent (separate overlays, each advertising the same workload
  // from its own deterministic stream), so they run concurrently when jobs
  // allow; queries inside each sweep point then fan out across the same
  // worker budget via QueryExperimentConfig::jobs.
  std::map<harness::SystemKind,
           std::unique_ptr<discovery::DiscoveryService>>
      services;
  {
    std::vector<std::unique_ptr<discovery::DiscoveryService>> built(
        kinds.size());
    ThreadPool pool(std::min(jobs, kinds.size()));
    pool.ParallelFor(kinds.size(), [&](std::size_t i) {
      built[i] = harness::BuildPopulated(kinds[i], setup, workload);
    });
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      services[kinds[i]] = std::move(built[i]);
    }
  }

  std::vector<SweepPoint> points;
  for (const std::size_t attrs : attr_counts) {
    SweepPoint p;
    p.attrs = attrs;
    for (const auto kind : kinds) {
      harness::QueryExperimentConfig cfg;
      cfg.requesters = requesters;
      cfg.queries_per_requester = queries_each;
      cfg.attrs_per_query = attrs;
      cfg.range = range;
      cfg.style = resource::RangeStyle::kBounded;
      cfg.seed = 0xF16u + attrs;  // same queries for every system
      cfg.jobs = jobs;
      const auto r = harness::RunQueries(*services[kind], workload, cfg);
      switch (metric) {
        case Metric::kAvgHops:
          p.value[kind] = r.avg_hops;
          break;
        case Metric::kTotalHops:
          p.value[kind] = r.total_hops;
          break;
        case Metric::kAvgVisited:
          p.value[kind] = r.avg_visited;
          break;
        case Metric::kTotalVisited:
          p.value[kind] = r.total_visited;
          break;
      }
    }
    points.push_back(std::move(p));
  }
  return points;
}

}  // namespace lorm::bench
