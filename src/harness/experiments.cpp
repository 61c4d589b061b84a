#include "harness/experiments.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/hashing.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lorm::harness {

namespace {

/// Independent per-trial stream: every trial seeds its own Rng from
/// (master seed, trial index), so trial t draws the same numbers no matter
/// which worker runs it or in what order. The salt separates the trial
/// streams from the master stream (which picks the requesters).
std::uint64_t TrialSeed(std::uint64_t master, std::size_t trial) {
  return MixHashes(master, 0x7121A15EEDull + trial);
}

/// Blocks each worker claims, on average, in one RunTrials: enough that the
/// last blocks still balance the workers, few enough that claiming one
/// costs nothing next to the trials it runs.
constexpr std::size_t kBlocksPerWorker = 16;

/// Runs fn(t) for every trial in [0, trials). The scheduling unit is a block
/// of consecutive trials, sized from `trials` and the worker count; a worker
/// that claims a block runs its trials in order. Because every trial owns
/// its Rng stream and result slot, the block width only changes which
/// thread runs a trial — never what it computes — so output is
/// bit-identical for any jobs. Sequential when jobs <= 1.
void RunTrials(std::size_t trials, std::size_t jobs,
               const std::function<void(std::size_t)>& fn) {
  const std::size_t workers = ResolveJobs(jobs);
  const std::size_t batch =
      std::max<std::size_t>(1, trials / (workers * kBlocksPerWorker));
  const std::size_t blocks = (trials + batch - 1) / batch;
  if (workers <= 1 || blocks <= 1) {
    for (std::size_t t = 0; t < trials; ++t) fn(t);
    return;
  }
  ThreadPool pool(workers);
  pool.ParallelFor(blocks, [&](std::size_t b) {
    const std::size_t end = std::min(trials, (b + 1) * batch);
    for (std::size_t t = b * batch; t < end; ++t) fn(t);
  });
}

}  // namespace

DirectoryMeasurement MeasureDirectories(
    const discovery::DiscoveryService& service) {
  DirectoryMeasurement m;
  const auto sizes = service.DirectorySizes();
  m.per_node = Summarize(sizes);
  m.total_pieces = service.TotalInfoPieces();
  m.fairness = JainFairness(sizes);
  m.gini = Gini(sizes);
  return m;
}

Summary MeasureOutlinks(const discovery::DiscoveryService& service) {
  return Summarize(service.OutlinkCounts());
}

QueryExperimentResult RunQueries(const discovery::DiscoveryService& service,
                                 const resource::Workload& workload,
                                 const QueryExperimentConfig& cfg) {
  QueryExperimentResult r;
  Rng rng(cfg.seed);
  const auto nodes = service.Nodes();
  LORM_CHECK_MSG(!nodes.empty(), "query experiment on empty network");

  // The paper randomly chooses `requesters` nodes, each sending
  // `queries_per_requester` queries.
  std::vector<NodeAddr> requesters;
  const std::size_t want = std::min(cfg.requesters, nodes.size());
  for (std::uint64_t idx : rng.SampleWithoutReplacement(nodes.size(), want)) {
    requesters.push_back(nodes[idx]);
  }

  // One slot per trial; workers never touch shared accumulators. All summed
  // quantities are small integers, so the sequential merge below is exact
  // and therefore independent of how trials were sharded.
  struct Trial {
    bool failed = false;
    std::uint64_t hops = 0;
    std::uint64_t visited = 0;
    std::uint64_t lookups = 0;
    std::uint64_t matches = 0;
  };
  const std::size_t trials = requesters.size() * cfg.queries_per_requester;
  std::vector<Trial> out(trials);
  const std::string system = service.name();
  // One id block per experiment: trial t always traces as id_base+t, so the
  // trace set is identical (up to wall-clock timing) for any cfg.jobs.
  const std::uint64_t id_base = obs::ReserveQueryIds(trials);
  RunTrials(trials, cfg.jobs, [&](std::size_t t) {
    const NodeAddr requester = requesters[t / cfg.queries_per_requester];
    Rng trial_rng(TrialSeed(cfg.seed, t));
    const resource::MultiQuery q =
        cfg.range ? workload.MakeRangeQuery(cfg.attrs_per_query, requester,
                                            cfg.style, trial_rng)
                  : workload.MakePointQuery(cfg.attrs_per_query, requester,
                                            trial_rng);
    // One scratch per worker: lookup path buffers are reused across all the
    // trials a thread executes, keeping the routing loop allocation-free.
    thread_local discovery::QueryScratch scratch;
    const obs::QueryTraceScope trace(system, id_base + t);
    const auto res = service.Query(q, scratch);
    Trial& slot = out[t];
    slot.failed = res.stats.failed;
    slot.hops = res.stats.dht_hops;
    slot.visited = res.stats.visited_nodes;
    slot.lookups = res.stats.lookups;
    slot.matches = res.providers.size();
  });

  double matches = 0;
  double lookups = 0;
  for (const Trial& t : out) {
    ++r.queries;
    if (t.failed) ++r.failures;
    r.total_hops += static_cast<double>(t.hops);
    r.total_visited += static_cast<double>(t.visited);
    lookups += static_cast<double>(t.lookups);
    matches += static_cast<double>(t.matches);
  }
  if (r.queries > 0) {
    const auto q = static_cast<double>(r.queries);
    r.avg_hops = r.total_hops / q;
    r.avg_visited = r.total_visited / q;
    r.avg_lookups = lookups / q;
    r.avg_matches = matches / q;
  }
  if (obs::MetricsEnabled()) {
    // End-of-run distributions over the network, not per query: how big the
    // directories are and who absorbed the query traffic.
    static obs::Histogram& dir_h = obs::Registry::Global().GetHistogram(
        "experiment.directory_size", obs::Histogram::ExponentialBounds(1.0, 16));
    static obs::Histogram& load_h = obs::Registry::Global().GetHistogram(
        "experiment.visit_load", obs::Histogram::ExponentialBounds(1.0, 20));
    for (const double s : service.DirectorySizes()) dir_h.RecordUnchecked(s);
    for (const double v : service.QueryLoadCounts()) load_h.RecordUnchecked(v);
  }
  return r;
}

SimTime EstimateQueryLatency(const discovery::QueryStats& stats,
                             const sim::LatencyModel& model, Rng& rng) {
  SimTime slowest = 0;
  for (const HopCount cost : stats.sub_costs) {
    SimTime t = 0;
    for (HopCount h = 0; h < cost + 1; ++h) {  // +1: the reply message
      t += model.SampleHop(rng);
    }
    slowest = std::max(slowest, t);
  }
  return slowest;
}

LatencyMeasurement MeasureQueryLatency(
    const discovery::DiscoveryService& service,
    const resource::Workload& workload, const QueryExperimentConfig& cfg,
    const sim::LatencyModel& model) {
  Rng rng(cfg.seed);
  const auto nodes = service.Nodes();
  LORM_CHECK_MSG(!nodes.empty(), "latency experiment on empty network");

  // Requesters come from the sequential master stream; each trial then owns
  // an independent query stream and an independent hop-latency stream.
  std::vector<NodeAddr> requesters;
  requesters.reserve(cfg.requesters);
  for (std::size_t i = 0; i < cfg.requesters; ++i) {
    requesters.push_back(nodes[rng.NextBelow(nodes.size())]);
  }

  const std::size_t trials = requesters.size() * cfg.queries_per_requester;
  std::vector<double> samples(trials);
  const std::string system = service.name();
  const std::uint64_t id_base = obs::ReserveQueryIds(trials);
  RunTrials(trials, cfg.jobs, [&](std::size_t t) {
    const NodeAddr requester = requesters[t / cfg.queries_per_requester];
    Rng trial_rng(TrialSeed(cfg.seed, t));
    Rng lat_rng = trial_rng.Fork();
    const resource::MultiQuery q =
        cfg.range ? workload.MakeRangeQuery(cfg.attrs_per_query, requester,
                                            cfg.style, trial_rng)
                  : workload.MakePointQuery(cfg.attrs_per_query, requester,
                                            trial_rng);
    thread_local discovery::QueryScratch scratch;
    const obs::QueryTraceScope trace(system, id_base + t);
    const auto res = service.Query(q, scratch);
    samples[t] = EstimateQueryLatency(res.stats, model, lat_rng);
  });

  // Fold the per-trial samples into the HDR histogram sequentially, in
  // trial order: the merge is then independent of how RunTrials sharded the
  // work, so the tail columns are bit-identical for any jobs.
  obs::LatencyHistogram hist;
  for (const double s : samples) {
    hist.Record(static_cast<std::uint64_t>(
        std::llround(std::max(0.0, s) * 1e9)));
  }

  const Summary s = Summarize(std::move(samples));
  LatencyMeasurement out;
  out.queries = s.count;
  out.mean = s.mean;
  out.p50 = s.p50;
  out.p99 = s.p99;
  out.tail = obs::SummarizeTail(hist);
  out.tail_p50 = static_cast<double>(out.tail.p50) / 1e9;
  out.tail_p90 = static_cast<double>(out.tail.p90) / 1e9;
  out.tail_p99 = static_cast<double>(out.tail.p99) / 1e9;
  out.tail_p999 = static_cast<double>(out.tail.p999) / 1e9;
  return out;
}

std::vector<NodeAddr> BruteForceProviders(
    const std::vector<resource::ResourceInfo>& infos,
    const resource::MultiQuery& q,
    const discovery::DiscoveryService& service) {
  std::vector<NodeAddr> result;
  for (const auto& sub : q.subs) {
    std::vector<NodeAddr> matches;
    for (const auto& info : infos) {
      if (sub.Matches(info)) matches.push_back(info.provider);
    }
    std::sort(matches.begin(), matches.end());
    matches.erase(std::unique(matches.begin(), matches.end()), matches.end());
    if (&sub == &q.subs.front()) {
      result = std::move(matches);
    } else {
      std::vector<NodeAddr> tmp;
      std::set_intersection(result.begin(), result.end(), matches.begin(),
                            matches.end(), std::back_inserter(tmp));
      result.swap(tmp);
    }
  }
  result.erase(std::remove_if(result.begin(), result.end(),
                              [&](NodeAddr p) { return !service.HasNode(p); }),
               result.end());
  return result;
}

}  // namespace lorm::harness
