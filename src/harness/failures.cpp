#include "harness/failures.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "harness/experiments.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lorm::harness {
namespace {

/// Synthetic phase clock: this harness is phase-structured, not
/// event-driven, so flight events and timeline windows are stamped with the
/// phase index (0 = crash, 1 = degraded, 2 = repaired, 3 = recovered).
void BeginPhase(const FailureConfig& cfg, const std::string& system,
                double phase, std::uint64_t detail) {
  if (obs::FlightEnabled()) {
    obs::SetFlightSimTime(phase);
    obs::RecordFlight(obs::FlightEventKind::kPhase, system, kNoNode,
                      static_cast<std::uint64_t>(phase), detail);
  }
  if (cfg.timeline != nullptr) cfg.timeline->Advance(phase);
}

void AddPhaseSeries(const FailureConfig& cfg, const FailurePhase& phase) {
  if (cfg.timeline == nullptr) return;
  cfg.timeline->Add("queries", static_cast<double>(phase.queries));
  cfg.timeline->Add("routing_failures",
                    static_cast<double>(phase.routing_failures));
  cfg.timeline->Add("recall_pct", 100.0 * phase.recall);
}

FailurePhase MeasurePhase(const discovery::DiscoveryService& service,
                          const resource::Workload& workload,
                          const std::vector<resource::ResourceInfo>& infos,
                          const FailureConfig& cfg, Rng rng) {
  FailurePhase phase;
  const auto nodes = service.Nodes();
  const std::string system = service.name();
  double found = 0, expected = 0;
  for (std::size_t i = 0; i < cfg.queries; ++i) {
    const NodeAddr requester = nodes[rng.NextBelow(nodes.size())];
    const auto q = workload.MakeRangeQuery(cfg.attrs_per_query, requester,
                                           cfg.style, rng);
    const obs::QueryTraceScope trace(system);
    const auto res = service.Query(q);
    ++phase.queries;
    if (res.stats.failed) ++phase.routing_failures;
    if (obs::MetricsEnabled()) {
      static obs::Counter& queries_c =
          obs::Registry::Global().GetCounter("failures.phase.queries");
      static obs::Counter& routing_c = obs::Registry::Global().GetCounter(
          "failures.phase.routing_failures");
      queries_c.AddUnchecked(1);
      if (res.stats.failed) routing_c.AddUnchecked(1);
    }
    // Recall is measured per sub-query (the multi-attribute join often
    // intersects to the empty set, which would hide lost directories).
    for (std::size_t sub = 0; sub < q.subs.size(); ++sub) {
      resource::MultiQuery single;
      single.requester = requester;
      single.subs = {q.subs[sub]};
      const auto truth = BruteForceProviders(infos, single, service);
      expected += static_cast<double>(truth.size());
      std::vector<NodeAddr> got;
      for (const auto& info : res.per_sub[sub]) got.push_back(info.provider);
      std::sort(got.begin(), got.end());
      got.erase(std::unique(got.begin(), got.end()), got.end());
      for (const NodeAddr p : truth) {
        if (std::binary_search(got.begin(), got.end(), p)) found += 1;
      }
    }
  }
  phase.recall = expected > 0 ? found / expected : 1.0;
  return phase;
}

}  // namespace

FailureResult RunFailureExperiment(
    discovery::DiscoveryService& service, const resource::Workload& workload,
    const std::vector<resource::ResourceInfo>& infos,
    const FailureConfig& cfg) {
  LORM_CHECK_MSG(cfg.fail_fraction >= 0.0 && cfg.fail_fraction <= 1.0,
                 "fail fraction must be in [0, 1]");
  FailureResult result;
  Rng rng(cfg.seed);
  const std::string system = service.name();

  // 1. Crash a random fraction of the nodes. At least one node always
  //    survives: the measurement phases need a live requester, and a
  //    fraction of 1.0 would otherwise leave an empty network (and a 0/0
  //    recall).
  const auto nodes = service.Nodes();
  const auto kill_count = std::min(
      static_cast<std::size_t>(cfg.fail_fraction *
                               static_cast<double>(nodes.size())),
      nodes.empty() ? std::size_t{0} : nodes.size() - 1);
  const std::size_t before_pieces = service.TotalInfoPieces();
  BeginPhase(cfg, system, 0.0, kill_count);
  for (std::uint64_t idx : rng.SampleWithoutReplacement(nodes.size(),
                                                        kill_count)) {
    service.FailNode(nodes[idx]);
    ++result.failed_nodes;
  }
  result.lost_entries = before_pieces - service.TotalInfoPieces();
  if (cfg.timeline != nullptr) {
    cfg.timeline->Add("failed_nodes", static_cast<double>(result.failed_nodes));
    cfg.timeline->Add("lost_entries", static_cast<double>(result.lost_entries));
  }

  // 2. Degraded service: stale links, lost directory entries.
  BeginPhase(cfg, system, 1.0, 0);
  result.degraded =
      MeasurePhase(service, workload, infos, cfg, rng.Fork());
  AddPhaseSeries(cfg, result.degraded);

  // 3. Routing repair: one self-organization round. Still-missing answers
  //    now reflect lost data only (replicas, if configured, fill the gap).
  BeginPhase(cfg, system, 2.0, 0);
  service.Maintain();
  result.repaired = MeasurePhase(service, workload, infos, cfg, rng.Fork());
  AddPhaseSeries(cfg, result.repaired);

  // 4. Data repair: a fresh soft-state epoch — every surviving provider
  //    re-reports its resources and the stale epoch is expired (paper §III:
  //    nodes report periodically).
  BeginPhase(cfg, system, 3.0, 0);
  const std::uint64_t epoch = service.CurrentEpoch() + 1;
  service.SetEpoch(epoch);
  std::vector<resource::ResourceInfo> live;
  for (const auto& info : infos) {
    if (service.HasNode(info.provider)) live.push_back(info);
  }
  service.AdvertiseAll(live);
  service.ExpireEntriesBefore(epoch);

  // 5. Fully recovered service.
  result.recovered =
      MeasurePhase(service, workload, infos, cfg, rng.Fork());
  AddPhaseSeries(cfg, result.recovered);
  if (cfg.timeline != nullptr) cfg.timeline->Finish(4.0);
  return result;
}

}  // namespace lorm::harness
