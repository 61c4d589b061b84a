// Thread-pool tests plus the parallel experiment engine's determinism
// contract: sharding trials over N workers must be invisible in the results.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hpp"
#include "harness/experiments.hpp"
#include "service_test_util.hpp"
#include "sim/latency.hpp"

namespace lorm {
namespace {

TEST(ThreadPoolTest, ResolveJobsNeverReturnsZero) {
  EXPECT_GE(ResolveJobs(0), 1u);
  EXPECT_EQ(ResolveJobs(1), 1u);
  EXPECT_EQ(ResolveJobs(7), 7u);
}

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.workers(), 4u);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.workers(), 1u);
  std::vector<std::size_t> order;
  pool.ParallelFor(64, [&](std::size_t i) { order.push_back(i); });
  // No spawned workers: strictly sequential in index order.
  std::vector<std::size_t> expect(64);
  std::iota(expect.begin(), expect.end(), std::size_t{0});
  EXPECT_EQ(order, expect);
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  for (int batch = 0; batch < 20; ++batch) {
    std::atomic<std::size_t> sum{0};
    pool.ParallelFor(100, [&](std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 4950u) << "batch " << batch;
  }
}

TEST(ThreadPoolTest, EmptyBatchIsANoOp) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, PropagatesExceptionsAndStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(1000,
                       [&](std::size_t i) {
                         if (i == 137) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool must survive a failed batch.
  std::atomic<std::size_t> count{0};
  pool.ParallelFor(50, [&](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 50u);
}

TEST(ThreadPoolTest, InlinePoolPropagatesExceptions) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.ParallelFor(
                   10, [](std::size_t i) {
                     if (i == 3) throw std::runtime_error("inline boom");
                   }),
               std::runtime_error);
}

// ---- Determinism of the parallel experiment engine ------------------------

class ParallelDeterminismTest
    : public ::testing::TestWithParam<harness::SystemKind> {};

TEST_P(ParallelDeterminismTest, JobsDoNotChangeQueryResults) {
  auto bed = testutil::MakeBed(GetParam());
  for (const bool range : {false, true}) {
    harness::QueryExperimentConfig cfg;
    cfg.requesters = 25;
    cfg.queries_per_requester = 4;
    cfg.attrs_per_query = 2;
    cfg.range = range;
    cfg.seed = 0xD37E12ull;

    cfg.jobs = 1;
    const auto seq = harness::RunQueries(*bed.service, *bed.workload, cfg);
    cfg.jobs = 8;
    const auto par = harness::RunQueries(*bed.service, *bed.workload, cfg);

    EXPECT_EQ(seq.queries, par.queries);
    EXPECT_EQ(seq.failures, par.failures);
    // Bit-identical, not approximately equal: the whole point of per-trial
    // RNG streams and per-slot accumulation.
    EXPECT_EQ(seq.total_hops, par.total_hops) << (range ? "range" : "point");
    EXPECT_EQ(seq.total_visited, par.total_visited);
    EXPECT_EQ(seq.avg_hops, par.avg_hops);
    EXPECT_EQ(seq.avg_visited, par.avg_visited);
    EXPECT_EQ(seq.avg_lookups, par.avg_lookups);
    EXPECT_EQ(seq.avg_matches, par.avg_matches);
  }
}

TEST_P(ParallelDeterminismTest, JobsDoNotChangeLatencyMeasurement) {
  auto bed = testutil::MakeBed(GetParam());
  const sim::FixedLatency model(0.01);
  harness::QueryExperimentConfig cfg;
  cfg.requesters = 10;
  cfg.queries_per_requester = 5;
  cfg.attrs_per_query = 2;

  cfg.jobs = 1;
  const auto seq =
      harness::MeasureQueryLatency(*bed.service, *bed.workload, cfg, model);
  cfg.jobs = 8;
  const auto par =
      harness::MeasureQueryLatency(*bed.service, *bed.workload, cfg, model);

  EXPECT_EQ(seq.queries, par.queries);
  EXPECT_EQ(seq.mean, par.mean);
  EXPECT_EQ(seq.p50, par.p50);
  EXPECT_EQ(seq.p99, par.p99);
}

TEST_P(ParallelDeterminismTest, ParallelReplayKeepsQueryLoadTotals) {
  // Visit counters are the one thing Query() writes; under parallel replay
  // their totals must still equal the visited-node totals.
  auto bed = testutil::MakeBed(GetParam());
  bed.service->ResetQueryLoad();
  harness::QueryExperimentConfig cfg;
  cfg.requesters = 20;
  cfg.queries_per_requester = 5;
  cfg.attrs_per_query = 2;
  cfg.range = true;
  cfg.jobs = 8;
  const auto r = harness::RunQueries(*bed.service, *bed.workload, cfg);
  double total = 0;
  for (double l : bed.service->QueryLoadCounts()) total += l;
  EXPECT_DOUBLE_EQ(total, r.total_visited);
}

INSTANTIATE_TEST_SUITE_P(AllSystems, ParallelDeterminismTest,
                         ::testing::ValuesIn(harness::AllSystems()));

}  // namespace
}  // namespace lorm
