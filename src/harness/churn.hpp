// Dynamic-environment experiment (paper §V-C, Fig. 6).
//
// Node (and resource) joins and departures arrive as independent Poisson
// processes of rate R each, interleaved with query arrivals and periodic
// maintenance on a simulated clock. "For example, there is one resource join
// and one resource departure every 2.5 seconds with R = 0.4."
#pragma once

#include <cstdint>

#include "discovery/discovery.hpp"
#include "harness/setup.hpp"
#include "obs/timeline.hpp"
#include "resource/workload.hpp"

namespace lorm::harness {

struct ChurnConfig {
  double rate = 0.4;                ///< R: joins/sec and departures/sec
  std::size_t total_queries = 10000;
  double query_rate = 10.0;         ///< query arrivals per second
  std::size_t attrs_per_query = 3;
  bool range = false;
  resource::RangeStyle style = resource::RangeStyle::kBounded;
  /// Resource tuples a joining node advertises.
  std::size_t adverts_per_join = 3;
  /// Seconds between global stabilization rounds (0 disables).
  double maintain_interval = 20.0;
  /// Departures are skipped while the network is at or below this size.
  std::size_t min_network = 16;
  std::uint64_t seed = 0xD34D11FEull;
  /// Optional time-series sampler (`--timeline`). RunChurn advances it with
  /// the sim clock and feeds it per-event series (queries/hops/visited/
  /// failures/joins/departures/maintenance); it installs a load probe that
  /// reads *and resets* the service's per-node query-load counters at each
  /// window close, and calls Finish(sim_duration) before returning. The
  /// churn loop is single-threaded, so the timeline is byte-identical for
  /// any --jobs. Not owned.
  obs::TimelineSampler* timeline = nullptr;
};

struct ChurnResult {
  std::size_t queries = 0;
  std::size_t failures = 0;   ///< queries whose routing failed (paper: zero)
  std::size_t joins = 0;
  std::size_t rejected_joins = 0;  ///< joins refused: id space was full
  std::size_t departures = 0;
  /// Averages over *successful* queries only (Fig. 6); a routing-failed
  /// query's truncated costs land in failed_hops/failed_visited instead.
  double avg_hops = 0;        ///< Fig. 6(a)
  double avg_visited = 0;     ///< Fig. 6(b)
  std::uint64_t failed_hops = 0;     ///< total hops spent by failed queries
  std::uint64_t failed_visited = 0;  ///< nodes visited by failed queries
  /// Simulated timestamp of the last query — the measurement window. Joins,
  /// departures and maintenance are only counted up to this instant.
  double sim_duration = 0;
};

/// Runs the churn experiment against an already-populated service.
/// New joiners use addresses starting at `next_addr`.
ChurnResult RunChurn(discovery::DiscoveryService& service,
                     const resource::Workload& workload, NodeAddr next_addr,
                     const ChurnConfig& cfg);

}  // namespace lorm::harness
