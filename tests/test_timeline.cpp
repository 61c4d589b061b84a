// Timeline/tail-latency tests: the HDR histogram's bucket geometry and
// quantile bounds, exact merges, the sampler's window bookkeeping (counter
// deltas, load probe, trailing partial window), the pinned JSONL shape and
// its parser round-trip, and the churn harness integration — series totals
// must equal the ChurnResult and the bytes must not depend on --jobs.
#include "obs/timeline.hpp"

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/churn.hpp"
#include "obs/analyze.hpp"
#include "obs/metrics.hpp"
#include "service_test_util.hpp"

namespace lorm::obs {
namespace {

TEST(LatencyHistogram, SmallValuesAreExact) {
  for (std::uint64_t v = 0; v < LatencyHistogram::kSub; ++v) {
    EXPECT_EQ(LatencyHistogram::BucketIndex(v), v);
    EXPECT_EQ(LatencyHistogram::BucketUpperBound(v), v);
  }
}

TEST(LatencyHistogram, BucketGeometryIsMonotoneAndCovering) {
  // Every value maps into a bucket whose upper bound is >= the value and
  // whose predecessor's bound is < the value.
  for (const std::uint64_t v :
       {std::uint64_t{32}, std::uint64_t{33}, std::uint64_t{63},
        std::uint64_t{64}, std::uint64_t{1000}, std::uint64_t{4096},
        std::uint64_t{123456789}, std::uint64_t{1} << 40,
        (std::uint64_t{1} << 62) + 12345}) {
    const std::size_t idx = LatencyHistogram::BucketIndex(v);
    ASSERT_LT(idx, LatencyHistogram::kBuckets);
    EXPECT_GE(LatencyHistogram::BucketUpperBound(idx), v);
    if (idx > 0) {
      EXPECT_LT(LatencyHistogram::BucketUpperBound(idx - 1), v);
    }
  }
  // The top bucket covers the largest representable value.
  EXPECT_LT(LatencyHistogram::BucketIndex(~std::uint64_t{0}),
            LatencyHistogram::kBuckets);
}

TEST(LatencyHistogram, QuantileErrorIsBoundedByBucketWidth) {
  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 10000; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 10000u);
  // Exact-bucket-bound quantiles sit at most one sub-bucket (~3%) above
  // the true sample quantile and never below it.
  for (const auto& [q, exact] : {std::pair{0.5, 5000.0},
                                 std::pair{0.9, 9000.0},
                                 std::pair{0.99, 9900.0},
                                 std::pair{0.999, 9990.0}}) {
    const double got = static_cast<double>(h.ValueAtQuantile(q));
    EXPECT_GE(got, exact) << "q=" << q;
    EXPECT_LE(got, exact * 1.04) << "q=" << q;
  }
}

TEST(LatencyHistogram, ConstantStreamTailIsTheConstant) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.Record(777);
  const LatencyTail t = SummarizeTail(h);
  EXPECT_EQ(t.count, 100u);
  EXPECT_EQ(t.p50, 777u);
  EXPECT_EQ(t.p99, 777u);
  EXPECT_EQ(t.p999, 777u);
  EXPECT_EQ(t.max, 777u);
}

TEST(LatencyHistogram, MergeEqualsCombinedRecording) {
  LatencyHistogram a, b, combined;
  for (std::uint64_t v = 0; v < 500; ++v) {
    (v % 2 == 0 ? a : b).Record(v * 37);
    combined.Record(v * 37);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.sum(), combined.sum());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  for (const double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(a.ValueAtQuantile(q), combined.ValueAtQuantile(q));
  }
}

TEST(LatencyHistogram, EmptyHistogramIsAllZero) {
  const LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.ValueAtQuantile(0.99), 0u);
  const LatencyTail t = SummarizeTail(h);
  EXPECT_EQ(t.count, 0u);
  EXPECT_EQ(t.p999, 0u);
}

TEST(TimelineSampler, BucketsEventsIntoWindows) {
  TimelineSampler s(TimelineConfig{2.0});
  s.Advance(0.5);
  s.Add("events", 1);
  s.Advance(1.5);
  s.Add("events", 1);
  s.Advance(2.5);  // closes window 0
  s.Add("events", 1);
  s.Finish(6.0);   // closes window 1 and the idle window 2
  ASSERT_EQ(s.windows(), 3u);
  std::ostringstream os;
  s.WriteJsonLines(os);
  EXPECT_EQ(os.str(),
            "{\"window\":0,\"t0\":0,\"t1\":2,\"series\":{\"events\":2}}\n"
            "{\"window\":1,\"t0\":2,\"t1\":4,\"series\":{\"events\":1}}\n"
            "{\"window\":2,\"t0\":4,\"t1\":6,\"series\":{}}\n");
}

TEST(TimelineSampler, RegistryCounterDeltasPerWindow) {
  Registry::Global().Reset();
  SetMetricsEnabled(true);
  Counter& c = Registry::Global().GetCounter("test.timeline.delta");
  c.Add(5);  // pre-sampler counts must not leak into window 0
  TimelineSampler s(TimelineConfig{1.0});
  c.Add(3);
  s.Advance(1.0);  // window 0 closes: delta 3
  c.Add(4);
  s.Finish(2.0);   // window 1 closes: delta 4
  SetMetricsEnabled(false);
  Registry::Global().Reset();

  std::ostringstream os;
  s.WriteJsonLines(os);
  EXPECT_EQ(os.str(),
            "{\"window\":0,\"t0\":0,\"t1\":1,\"series\":"
            "{\"ctr.test.timeline.delta\":3}}\n"
            "{\"window\":1,\"t0\":1,\"t1\":2,\"series\":"
            "{\"ctr.test.timeline.delta\":4}}\n");
}

TEST(TimelineSampler, LoadProbeRunsAtEveryWindowClose) {
  TimelineSampler s(TimelineConfig{1.0});
  int calls = 0;
  s.SetLoadProbe([&] {
    ++calls;
    return std::vector<double>{1.0, 2.0, 3.0};
  });
  s.Add("x", 1);
  s.Advance(1.5);
  s.Add("x", 1);
  s.Finish(2.0);
  EXPECT_EQ(calls, 2);
  std::ostringstream os;
  s.WriteJsonLines(os);
  EXPECT_EQ(os.str(),
            "{\"window\":0,\"t0\":0,\"t1\":1,\"series\":{\"x\":1},"
            "\"load\":{\"nodes\":3,\"total\":6,\"max\":3}}\n"
            "{\"window\":1,\"t0\":1,\"t1\":2,\"series\":{\"x\":1},"
            "\"load\":{\"nodes\":3,\"total\":6,\"max\":3}}\n");
}

TEST(TimelineParse, RoundTripsSamplerOutput) {
  TimelineSampler s(TimelineConfig{2.5});
  s.SetLoadProbe([] { return std::vector<double>{4.0, 0.5}; });
  s.Add("queries", 12);
  s.Add("hops", 30.25);
  s.Finish(2.5);
  std::ostringstream os;
  s.WriteJsonLines(os);

  std::istringstream is(os.str());
  const auto windows = ParseTimelineStream(is);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].index, 0u);
  EXPECT_DOUBLE_EQ(windows[0].t0, 0.0);
  EXPECT_DOUBLE_EQ(windows[0].t1, 2.5);
  ASSERT_EQ(windows[0].series.size(), 2u);
  EXPECT_DOUBLE_EQ(windows[0].series.at("queries"), 12.0);
  EXPECT_DOUBLE_EQ(windows[0].series.at("hops"), 30.25);
  ASSERT_TRUE(windows[0].has_load);
  EXPECT_EQ(windows[0].load_nodes, 2u);
  EXPECT_DOUBLE_EQ(windows[0].load_total, 4.5);
  EXPECT_DOUBLE_EQ(windows[0].load_max, 4.0);
}

TEST(TimelineParse, RejectsMalformedLines) {
  TimelineWindow w;
  std::string err;
  EXPECT_FALSE(ParseTimelineLine("{\"t0\":0}", w, &err));
  EXPECT_FALSE(ParseTimelineLine("not json", w, &err));
  EXPECT_FALSE(
      ParseTimelineLine("{\"window\":0,\"t0\":0,\"t1\":1}", w, &err));
}

/// Churn integration: the timeline's series totals must agree with the
/// ChurnResult the harness returned, and the bytes must be identical across
/// runs (the churn loop is single-threaded — jobs/batch cannot appear).
TEST(TimelineChurn, SeriesTotalsMatchChurnResultAndBytesAreStable) {
  std::string first_bytes;
  for (int run = 0; run < 2; ++run) {
    auto bed = testutil::MakeBed(harness::SystemKind::kSword);
    harness::ChurnConfig cfg;
    cfg.rate = 0.4;
    cfg.total_queries = 60;
    cfg.seed = 0x7E57;
    TimelineSampler sampler(TimelineConfig{5.0});
    cfg.timeline = &sampler;
    const auto result = harness::RunChurn(
        *bed.service, *bed.workload,
        static_cast<NodeAddr>(bed.setup.nodes) + 1, cfg);

    std::ostringstream os;
    sampler.WriteJsonLines(os);
    if (run == 0) {
      first_bytes = os.str();
      ASSERT_FALSE(first_bytes.empty());
    } else {
      EXPECT_EQ(os.str(), first_bytes);
    }

    std::istringstream is(os.str());
    const auto windows = ParseTimelineStream(is);
    ASSERT_GT(windows.size(), 0u);
    double queries = 0, joins = 0, departures = 0, load_total = 0;
    for (const auto& w : windows) {
      const auto get = [&](const char* name) {
        const auto it = w.series.find(name);
        return it == w.series.end() ? 0.0 : it->second;
      };
      queries += get("queries");
      joins += get("joins");
      departures += get("departures");
      ASSERT_TRUE(w.has_load);
      load_total += w.load_total;
    }
    EXPECT_EQ(static_cast<std::size_t>(queries), result.queries);
    EXPECT_EQ(static_cast<std::size_t>(joins), result.joins);
    EXPECT_EQ(static_cast<std::size_t>(departures), result.departures);
    // The load probe reads-and-resets per window, so the window totals sum
    // to the whole run's visited-node probes.
    EXPECT_GT(load_total, 0.0);
  }
}

}  // namespace
}  // namespace lorm::obs
