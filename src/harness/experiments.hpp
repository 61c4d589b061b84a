// Static-network experiment runners for the paper's figures.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "discovery/discovery.hpp"
#include "harness/setup.hpp"
#include "obs/timeline.hpp"
#include "resource/workload.hpp"
#include "sim/latency.hpp"

namespace lorm::harness {

/// Per-node directory-size distribution (Fig. 3(b-d)) plus the total stored
/// pieces (Theorem 4.2).
struct DirectoryMeasurement {
  Summary per_node;
  std::size_t total_pieces = 0;
  double fairness = 0.0;  ///< Jain index of the per-node loads
  double gini = 0.0;      ///< Gini coefficient of the per-node loads
};

DirectoryMeasurement MeasureDirectories(
    const discovery::DiscoveryService& service);

/// Per-node out-link distribution (Fig. 3(a)).
Summary MeasureOutlinks(const discovery::DiscoveryService& service);

/// The paper's query experiment: `requesters` randomly chosen nodes send
/// `queries_per_requester` queries each (§V-B uses 100 x 10).
///
/// Parallel replay: queries against a static overlay are read-only, so the
/// trials are sharded over `jobs` worker threads that share the service.
/// Every trial derives an independent Rng stream from (seed, trial index)
/// and writes into its own result slot, merged sequentially afterwards —
/// results are bit-identical for any `jobs` value (including 1). Do not run
/// parallel replay concurrently with membership changes.
struct QueryExperimentConfig {
  std::size_t requesters = 100;
  std::size_t queries_per_requester = 10;
  std::size_t attrs_per_query = 1;
  bool range = false;
  resource::RangeStyle style = resource::RangeStyle::kBounded;
  std::uint64_t seed = 0xE4BE7ull;
  /// Worker threads for the trial replay; 0 = hardware concurrency.
  /// Workers claim blocks of consecutive trials, sized from the trial and
  /// worker counts; trials stay independent (own Rng stream, own result
  /// slot, own trace id), so results are bit-identical for any jobs.
  std::size_t jobs = 1;
};

struct QueryExperimentResult {
  std::size_t queries = 0;
  std::size_t failures = 0;
  double total_hops = 0;      ///< Fig. 4(b)
  double avg_hops = 0;        ///< Fig. 4(a)
  double total_visited = 0;   ///< Fig. 5 (x1000 queries)
  double avg_visited = 0;
  double avg_lookups = 0;
  double avg_matches = 0;     ///< average joined providers per query
};

QueryExperimentResult RunQueries(const discovery::DiscoveryService& service,
                                 const resource::Workload& workload,
                                 const QueryExperimentConfig& cfg);

/// Ground truth for correctness checks: providers matching every sub-query,
/// by brute force over `infos`, restricted to live members of `service`.
std::vector<NodeAddr> BruteForceProviders(
    const std::vector<resource::ResourceInfo>& infos,
    const resource::MultiQuery& q,
    const discovery::DiscoveryService& service);

/// Estimated end-to-end latency of one resolved query under a per-hop
/// latency model. Sub-queries are resolved in parallel (paper §III), so the
/// query completes when its slowest sub-path — lookup hops, walk forwards,
/// plus one reply message — has been traversed.
SimTime EstimateQueryLatency(const discovery::QueryStats& stats,
                             const sim::LatencyModel& model, Rng& rng);

struct LatencyMeasurement {
  std::size_t queries = 0;
  double mean = 0;
  double p50 = 0;   ///< exact sample quantile (Summarize)
  double p99 = 0;   ///< exact sample quantile (Summarize)
  /// Exact-bucket-bound quantiles from an HDR-style LatencyHistogram over
  /// the same samples (seconds; <= ~3% quantization error). Per-trial
  /// samples are folded into the histogram sequentially after the parallel
  /// replay, so these are bit-identical for any jobs.
  obs::LatencyTail tail;  ///< nanoseconds
  double tail_p50 = 0;    ///< seconds, = tail.p50 / 1e9
  double tail_p90 = 0;
  double tail_p99 = 0;
  double tail_p999 = 0;
};

/// Runs the query batch and estimates per-query latency under `model`.
LatencyMeasurement MeasureQueryLatency(
    const discovery::DiscoveryService& service,
    const resource::Workload& workload, const QueryExperimentConfig& cfg,
    const sim::LatencyModel& model);

}  // namespace lorm::harness
