// Observability-layer tests: metrics registry semantics, the three rings'
// lookup instruments and each system's advertise instruments, the trace
// recorder's agreement with QueryStats across all four systems, --jobs
// independence of the sharded instruments, and the offline analyzer —
// wire-format round-trips, anomaly detectors, and report determinism.
#include "obs/metrics.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chord/chord.hpp"
#include "common/random.hpp"
#include "cycloid/cycloid.hpp"
#include "harness/batch_lookup.hpp"
#include "harness/experiments.hpp"
#include "obs/analyze.hpp"
#include "obs/trace.hpp"
#include "service_test_util.hpp"
#include "singlehop/singlehop.hpp"

namespace lorm::obs {
namespace {

/// Every test must leave the process-wide obs state as it found it (off):
/// other suites in this binary assert the off-state costs nothing.
struct MetricsOn {
  MetricsOn() {
    Registry::Global().Reset();
    SetMetricsEnabled(true);
  }
  ~MetricsOn() { SetMetricsEnabled(false); }
};

TEST(MetricsGate, OffByDefaultAndRecordsNothing) {
  ASSERT_FALSE(MetricsEnabled());
  Counter& c = Registry::Global().GetCounter("test.gate.counter");
  Histogram& h = Registry::Global().GetHistogram(
      "test.gate.hist", Histogram::LinearBounds(0.0, 1.0, 4));
  c.Add();
  h.Record(2.0);
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_EQ(h.TotalCount(), 0u);
}

TEST(MetricsCounter, AddsAndResets) {
  MetricsOn on;
  Counter& c = Registry::Global().GetCounter("test.counter");
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(MetricsHistogram, BucketsByUpperBoundWithOverflow) {
  MetricsOn on;
  // Bounds 1,2,3: bucket i counts samples <= bounds[i]; 4th is overflow.
  Histogram& h = Registry::Global().GetHistogram(
      "test.hist.buckets", Histogram::LinearBounds(0.0, 1.0, 3));
  for (const double x : {0.0, 1.0, 1.5, 2.0, 2.5, 3.0, 99.0}) h.Record(x);
  const auto counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);  // 0.0, 1.0
  EXPECT_EQ(counts[1], 2u);  // 1.5, 2.0
  EXPECT_EQ(counts[2], 2u);  // 2.5, 3.0
  EXPECT_EQ(counts[3], 1u);  // 99.0
  EXPECT_EQ(h.TotalCount(), 7u);
  EXPECT_DOUBLE_EQ(h.Sum(), 109.0);
}

TEST(MetricsHistogram, ExponentialBoundsDouble) {
  const auto b = Histogram::ExponentialBounds(1.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[3], 8.0);
}

TEST(MetricsRegistry, InternsInstrumentsAndSurvivesReset) {
  Counter& a = Registry::Global().GetCounter("test.intern");
  Counter& b = Registry::Global().GetCounter("test.intern");
  EXPECT_EQ(&a, &b);
  Registry::Global().Reset();
  EXPECT_EQ(&Registry::Global().GetCounter("test.intern"), &a);
}

TEST(MetricsRegistry, WriteJsonEmitsAllInstruments) {
  MetricsOn on;
  Registry::Global().GetCounter("test.json.counter").Add(3);
  Registry::Global()
      .GetHistogram("test.json.hist", Histogram::LinearBounds(0.0, 1.0, 2))
      .Record(1.5);
  std::ostringstream os;
  Registry::Global().WriteJson(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"test.json.counter\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.json.hist\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"bounds\":[1,2]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"counts\":[0,1,0]"), std::string::npos) << json;
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(MetricsConcurrency, ShardedAddsSumExactly) {
  MetricsOn on;
  Counter& c = Registry::Global().GetCounter("test.mt.counter");
  Histogram& h = Registry::Global().GetHistogram(
      "test.mt.hist", Histogram::LinearBounds(0.0, 1.0, 8));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.Add();
        h.Record(static_cast<double>(t % 4));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.Value(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(h.TotalCount(), static_cast<std::uint64_t>(kThreads * kPerThread));
}

// ---- Ring lookup instruments ----------------------------------------------

/// The registry, read through its dump: this registers nothing, so a name
/// found here was registered by the code under test.
ParsedMetrics DumpRegistry() {
  std::ostringstream os;
  Registry::Global().WriteJson(os);
  ParsedMetrics m;
  std::string err;
  EXPECT_TRUE(ParseMetricsJson(os.str(), m, &err)) << err;
  return m;
}

/// What a ring's lookups fed into the registry under "<prefix>.lookup*".
struct LookupTotals {
  std::uint64_t lookups = 0;
  std::uint64_t failures = 0;
  std::uint64_t dead_skips = 0;
  std::uint64_t hop_count = 0;
  double hop_sum = 0.0;
};

LookupTotals RingTotals(const ParsedMetrics& m, const std::string& prefix) {
  const auto counter = [&](const std::string& name) -> std::uint64_t {
    const auto it = m.counters.find(prefix + name);
    return it == m.counters.end() ? 0 : it->second;
  };
  LookupTotals t;
  t.lookups = counter(".lookups");
  t.failures = counter(".lookup.failures");
  t.dead_skips = counter(".lookup.dead_links_skipped");
  const auto h = m.histograms.find(prefix + ".lookup.hops");
  if (h != m.histograms.end()) {
    t.hop_count = h->second.count;
    t.hop_sum = h->second.sum;
  }
  return t;
}

/// Crashes about a tenth of `ring`'s members without StabilizeAll, routes
/// 2,000 lookups from live origins through LookupInto and then through the
/// batch engine (B = 8), and checks that each pass moved the registry by
/// exactly what its results add up to. The dead-link counter must follow
/// the ring's own maintenance meter; `dead_links` says whether that moves.
template <typename Ring, typename MakeKey>
void ExpectLookupInstrumentsMatchResults(Ring& ring, const std::string& prefix,
                                         MakeKey&& make_key, bool dead_links) {
  Rng rng(0x100C5);
  std::vector<NodeAddr> live = ring.Members();
  for (std::size_t crashed = 0; crashed < live.size() / 10 + 1; ++crashed) {
    const std::size_t pick = rng.NextBelow(live.size());
    ring.FailNode(live[pick]);
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  using Engine = harness::BatchLookupEngine<Ring>;
  std::vector<typename Engine::Request> reqs(2000);
  for (auto& r : reqs) {
    r.key = make_key(rng);
    r.origin = live[rng.NextBelow(live.size())];
  }

  MetricsOn on;
  for (const bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "batch engine" : "LookupInto");
    LookupTotals want;
    const auto add = [&](const typename Ring::LookupResult& r) {
      ++want.lookups;
      if (!r.ok) ++want.failures;
      ++want.hop_count;
      want.hop_sum += static_cast<double>(r.hops);
    };
    const LookupTotals before = RingTotals(DumpRegistry(), prefix);
    const std::uint64_t dead_before = ring.maintenance().dead_links_skipped;
    if (batched) {
      Engine engine(8);
      engine.Run(ring, reqs.data(), reqs.size(),
                 [&](std::size_t, const auto& r) { add(r); });
    } else {
      typename Ring::LookupResult res;
      for (const auto& r : reqs) {
        ring.LookupInto(r.key, r.origin, res);
        add(res);
      }
    }
    want.dead_skips = ring.maintenance().dead_links_skipped - dead_before;
    const ParsedMetrics dump = DumpRegistry();
    EXPECT_EQ(dump.counters.count(prefix + ".lookup.dead_links_skipped"), 1u);
    const LookupTotals after = RingTotals(dump, prefix);
    EXPECT_EQ(want.lookups, reqs.size());
    EXPECT_EQ(after.lookups - before.lookups, want.lookups);
    EXPECT_EQ(after.failures - before.failures, want.failures);
    EXPECT_EQ(after.hop_count - before.hop_count, want.hop_count);
    EXPECT_DOUBLE_EQ(after.hop_sum - before.hop_sum, want.hop_sum);
    EXPECT_EQ(after.dead_skips - before.dead_skips, want.dead_skips);
    if (dead_links) {
      EXPECT_GT(want.dead_skips, 0u);
    } else {
      EXPECT_EQ(want.dead_skips, 0u);
    }
  }
}

TEST(RingLookupInstruments, ChordCountsMatchResults) {
  chord::Config cfg;
  cfg.bits = 16;
  auto ring = chord::MakeRing(384, cfg, /*deterministic_ids=*/false);
  ExpectLookupInstrumentsMatchResults(
      ring, "chord", [&](Rng& rng) { return rng.NextBelow(ring.space()); },
      /*dead_links=*/true);
}

TEST(RingLookupInstruments, CycloidCountsMatchResults) {
  cycloid::Config cfg;
  cfg.dimension = 6;  // capacity 6 * 2^6 = 384
  auto net = cycloid::MakeCycloid(384, cfg);
  ExpectLookupInstrumentsMatchResults(
      net, "cycloid",
      [&](Rng& rng) {
        return cycloid::CycloidId{
            static_cast<unsigned>(rng.NextBelow(net.dimension())),
            rng.NextBelow(net.cluster_space())};
      },
      /*dead_links=*/true);
}

TEST(RingLookupInstruments, SingleHopCountsMatchResults) {
  // The full table never meets a dead link, but the counter is registered
  // like the other rings' (at 0), so dumps carry one key set per ring.
  singlehop::Config cfg;
  cfg.bits = 16;
  auto ring = singlehop::MakeSingleHopRing(384, cfg, false);
  ExpectLookupInstrumentsMatchResults(
      ring, "singlehop",
      [&](Rng& rng) { return rng.NextBelow(ring.space()); },
      /*dead_links=*/false);
}

TEST(AdvertiseInstruments, EachSystemBillsItsOwnName) {
  // The advertise instruments are a per-service member: one handle shared
  // by the Chord-keyed services would bill them all under one name. System
  // i advertises i + 1 times, so any such mix-up shows in the counts.
  const harness::Setup setup = harness::Setup::Small();
  resource::Workload workload(setup.MakeWorkloadConfig());
  Rng rng(47);
  const auto infos = workload.GenerateInfos({3}, rng);
  ASSERT_FALSE(infos.empty());
  std::vector<std::unique_ptr<discovery::DiscoveryService>> services;
  for (const harness::SystemKind kind : harness::AllSystems()) {
    services.push_back(harness::MakeService(kind, setup, workload.registry()));
  }
  MetricsOn on;
  for (std::size_t i = 0; i < services.size(); ++i) {
    for (std::size_t n = 0; n <= i; ++n) services[i]->Advertise(infos.front());
  }
  const ParsedMetrics dump = DumpRegistry();
  for (std::size_t i = 0; i < services.size(); ++i) {
    const std::string name = services[i]->name() + ".advertise";
    SCOPED_TRACE(name);
    const auto count = dump.counters.find(name + ".count");
    ASSERT_NE(count, dump.counters.end());
    EXPECT_EQ(count->second, i + 1);
    const auto hops = dump.histograms.find(name + ".hops");
    ASSERT_NE(hops, dump.histograms.end());
    EXPECT_EQ(hops->second.count, i + 1);
  }
}

TEST(DirectoryProbeInstruments, OneSamplePerVisitWithTracingOff) {
  // A probe skips its report when nobody listens, but metrics alone are a
  // listener: with no trace active, every visited node must still land one
  // sample in each directory.probe_* histogram, on every system.
  for (const harness::SystemKind kind : harness::AllSystems()) {
    SCOPED_TRACE(harness::SystemName(kind));
    auto bed = testutil::MakeBed(kind);
    Rng rng(0x9B0BE);
    MetricsOn on;
    ASSERT_FALSE(TracingActive());
    std::uint64_t visited = 0;
    for (int i = 0; i < 20; ++i) {
      const NodeAddr requester =
          static_cast<NodeAddr>(rng.NextBelow(bed.setup.nodes));
      const auto q =
          i % 2 == 0 ? bed.workload->MakeRangeQuery(
                           2, requester, resource::RangeStyle::kBounded, rng)
                     : bed.workload->MakePointQuery(3, requester, rng);
      visited += bed.service->Query(q).stats.visited_nodes;
    }
    ASSERT_GT(visited, 0u);
    const ParsedMetrics dump = DumpRegistry();
    for (const char* name : {"directory.probe_size", "directory.probe_hits"}) {
      const auto h = dump.histograms.find(name);
      ASSERT_NE(h, dump.histograms.end()) << name;
      EXPECT_EQ(h->second.count, visited) << name;
    }
  }
}

// ---- Trace recorder -------------------------------------------------------

TEST(TraceGate, InertWithoutSink) {
  ASSERT_EQ(GetGlobalTraceSink(), nullptr);
  QueryTraceScope scope("LORM");
  EXPECT_FALSE(TracingActive());
  OnLookup({}, 3, true, 0);  // must be a no-op, not a crash
}

class TracePerSystem : public ::testing::TestWithParam<harness::SystemKind> {};

TEST_P(TracePerSystem, TraceAgreesWithQueryStats) {
  auto bed = testutil::MakeBed(GetParam());
  MemoryTraceSink sink;
  SetGlobalTraceSink(&sink);

  Rng rng(0x0B5EC0DEull);
  const NodeAddr requester = 7;
  const resource::MultiQuery q = bed.workload->MakeRangeQuery(
      3, requester, resource::RangeStyle::kBounded, rng);
  discovery::QueryResult res;
  {
    QueryTraceScope scope(bed.service->name());
    EXPECT_TRUE(TracingActive());
    res = bed.service->Query(q);
  }
  SetGlobalTraceSink(nullptr);

  const auto traces = sink.Take();
  ASSERT_EQ(traces.size(), 1u);
  const QueryTrace& t = traces.front();
  EXPECT_EQ(t.system, bed.service->name());
  ASSERT_EQ(t.subs.size(), q.subs.size());

  HopCount hops = 0;
  std::size_t lookups = 0;
  std::size_t probes = 0;
  for (const SubQueryTrace& sub : t.subs) {
    for (const LookupTrace& l : sub.lookups) {
      ++lookups;
      hops += l.hops;
      EXPECT_TRUE(l.ok);
      // Per-hop path: origin plus one node per hop, owner last.
      ASSERT_EQ(l.path.size(), static_cast<std::size_t>(l.hops) + 1);
      EXPECT_EQ(l.path.front(), requester);
      EXPECT_EQ(l.dead_links_skipped, 0u);
    }
    probes += sub.probes.size();
  }
  EXPECT_EQ(hops, res.stats.dht_hops);
  EXPECT_EQ(lookups, res.stats.lookups);
  EXPECT_EQ(probes, res.stats.visited_nodes);
}

INSTANTIATE_TEST_SUITE_P(
    Systems, TracePerSystem,
    ::testing::Values(harness::SystemKind::kLorm,
                      harness::SystemKind::kMercury,
                      harness::SystemKind::kSword, harness::SystemKind::kMaan),
    [](const auto& info) {
      return std::string(harness::SystemName(info.param));
    });

TEST(TraceJsonLines, OneLinePerQueryAndWellFormedShape) {
  auto bed = testutil::MakeBed(harness::SystemKind::kSword);
  std::ostringstream os;
  JsonLinesTraceSink sink(os);
  SetGlobalTraceSink(&sink);
  harness::QueryExperimentConfig cfg;
  cfg.requesters = 4;
  cfg.queries_per_requester = 2;
  cfg.attrs_per_query = 2;
  cfg.jobs = 1;
  const auto r = harness::RunQueries(*bed.service, *bed.workload, cfg);
  SetGlobalTraceSink(nullptr);

  const std::string out = os.str();
  std::size_t lines = 0;
  for (const char ch : out) lines += ch == '\n';
  EXPECT_EQ(lines, r.queries);
  EXPECT_NE(out.find("\"system\":\"SWORD\""), std::string::npos);
  EXPECT_NE(out.find("\"path\":["), std::string::npos);
  EXPECT_NE(out.find("\"probes\":["), std::string::npos);
}

// ---- Wire-format round-trip -----------------------------------------------

std::string Serialize(const QueryTrace& t) {
  std::ostringstream os;
  JsonLinesTraceSink::WriteJson(os, t);
  return os.str();
}

/// Serialize -> parse -> serialize must reproduce the line byte for byte;
/// this pins the wire format from both sides.
void ExpectRoundTrips(const QueryTrace& t) {
  const std::string line = Serialize(t);
  QueryTrace parsed;
  std::string err;
  ASSERT_TRUE(ParseTraceLine(line, parsed, &err)) << err << "\n" << line;
  EXPECT_EQ(Serialize(parsed), line);
}

TEST(TraceRoundTrip, HandBuiltCornerCases) {
  // Escaping: quote, backslash, tab, newline and a raw control byte in the
  // system name.
  QueryTrace t;
  t.system = "we\"ird\\sys\tname\nwith\x01ctl";
  t.query_id = 42;
  t.duration_ns = 123456789;

  // Sub 0: a failed lookup (empty path) next to a successful one.
  SubQueryTrace& s0 = t.subs.emplace_back();
  s0.attr = 7;
  LookupTrace& fail = s0.lookups.emplace_back();
  fail.ok = false;  // empty path, zero hops
  LookupTrace& okl = s0.lookups.emplace_back();
  okl.path = {3, 1, 4, 15};
  okl.hops = 3;
  okl.ok = true;
  okl.dead_links_skipped = 2;
  okl.duration_ns = 987;

  // Sub 1: probe-only (a root hit without any routing).
  SubQueryTrace& s1 = t.subs.emplace_back();
  s1.attr = 0;
  s1.probes.push_back({9, 5, 120});
  s1.probes.push_back({kNoNode, 0, 0});

  ExpectRoundTrips(t);

  // Degenerate shells survive too.
  QueryTrace empty;
  empty.system = "";
  ExpectRoundTrips(empty);
}

TEST(TraceRoundTrip, PlannerFieldsRoundTrip) {
  // Planner-on traces add "plan" (sub-query execution order) at query level
  // and "cand" (running candidate-set size) per sub; both must round-trip.
  QueryTrace t;
  t.system = "SWORD";
  t.query_id = 9;
  t.duration_ns = 1000;
  t.plan_order = {2, 0, 1};
  SubQueryTrace& s0 = t.subs.emplace_back();
  s0.attr = 2;
  s0.plan_candidates = 17;
  SubQueryTrace& s1 = t.subs.emplace_back();
  s1.attr = 0;
  s1.plan_candidates = 0;  // pruned-to-empty still serializes explicitly
  SubQueryTrace& s2 = t.subs.emplace_back();
  s2.attr = 1;  // plan_candidates = -1: omitted on the wire
  ExpectRoundTrips(t);

  const std::string line = Serialize(t);
  EXPECT_NE(line.find("\"plan\":[2,0,1]"), std::string::npos) << line;
  EXPECT_NE(line.find("\"cand\":17"), std::string::npos) << line;
  EXPECT_NE(line.find("\"cand\":0"), std::string::npos) << line;

  QueryTrace parsed;
  std::string err;
  ASSERT_TRUE(ParseTraceLine(line, parsed, &err)) << err;
  EXPECT_EQ(parsed.plan_order, (std::vector<std::uint32_t>{2, 0, 1}));
  ASSERT_EQ(parsed.subs.size(), 3u);
  EXPECT_EQ(parsed.subs[0].plan_candidates, 17);
  EXPECT_EQ(parsed.subs[1].plan_candidates, 0);
  EXPECT_EQ(parsed.subs[2].plan_candidates, -1);

  // With planning off neither key appears anywhere — the wire format is
  // byte-identical to pre-planner builds.
  QueryTrace off;
  off.system = "LORM";
  off.subs.emplace_back().attr = 1;
  const std::string off_line = Serialize(off);
  EXPECT_EQ(off_line.find("plan"), std::string::npos) << off_line;
  EXPECT_EQ(off_line.find("cand"), std::string::npos) << off_line;
  ExpectRoundTrips(off);
}

TEST(TraceAnalyze, PlannerAggregation) {
  std::vector<QueryTrace> traces;

  // Planned, reordered, one sub pruned by the early exit (no work at all).
  QueryTrace a;
  a.system = "SWORD";
  a.query_id = 0;
  a.plan_order = {1, 0};
  SubQueryTrace& a0 = a.subs.emplace_back();
  a0.attr = 1;
  a0.plan_candidates = 3;
  a0.probes.push_back({1, 1, 4});
  SubQueryTrace& a1 = a.subs.emplace_back();
  a1.attr = 0;
  a1.plan_candidates = 0;  // skipped: zero candidates, no lookups/probes
  traces.push_back(a);

  // Planned but already in selectivity order; nothing skipped.
  QueryTrace b;
  b.system = "SWORD";
  b.query_id = 1;
  b.plan_order = {0};
  SubQueryTrace& b0 = b.subs.emplace_back();
  b0.attr = 0;
  b0.plan_candidates = 2;
  b0.probes.push_back({2, 1, 4});
  traces.push_back(b);

  // Unplanned trace from another system.
  QueryTrace c;
  c.system = "LORM";
  c.query_id = 2;
  c.subs.emplace_back().attr = 0;
  traces.push_back(c);

  AnomalyConfig cfg;
  cfg.nodes = 16;
  const TraceReport report = AnalyzeTraces(std::move(traces), cfg);
  ASSERT_EQ(report.systems.size(), 2u);  // sorted: LORM, SWORD
  EXPECT_EQ(report.systems[0].system, "LORM");
  EXPECT_EQ(report.systems[0].planned_queries, 0u);
  EXPECT_EQ(report.systems[1].system, "SWORD");
  EXPECT_EQ(report.systems[1].planned_queries, 2u);
  EXPECT_EQ(report.systems[1].reordered_queries, 1u);
  EXPECT_EQ(report.systems[1].subs_skipped, 1u);

  // The planner block renders only for systems that actually planned.
  std::ostringstream human;
  RenderReport(human, report);
  EXPECT_NE(human.str().find("planner: 2 planned"), std::string::npos)
      << human.str();
  std::size_t planner_lines = 0;
  for (std::string::size_type at = human.str().find("planner:");
       at != std::string::npos; at = human.str().find("planner:", at + 1)) {
    ++planner_lines;
  }
  EXPECT_EQ(planner_lines, 1u);
  std::ostringstream json;
  RenderReportJson(json, report);
  EXPECT_NE(json.str().find("\"planner\":{\"queries\":2,"), std::string::npos)
      << json.str();
}

TEST(TraceRoundTrip, ParsedFieldsMatch) {
  QueryTrace t;
  t.system = "LORM";
  t.query_id = 7;
  t.duration_ns = 55;
  SubQueryTrace& s = t.subs.emplace_back();
  s.attr = 3;
  LookupTrace& l = s.lookups.emplace_back();
  l.path = {0, 2};
  l.hops = 1;
  l.ok = true;
  l.duration_ns = 11;
  s.probes.push_back({2, 1, 9});

  QueryTrace parsed;
  ASSERT_TRUE(ParseTraceLine(Serialize(t), parsed));
  EXPECT_EQ(parsed.system, "LORM");
  EXPECT_EQ(parsed.query_id, 7u);
  EXPECT_EQ(parsed.duration_ns, 55u);
  ASSERT_EQ(parsed.subs.size(), 1u);
  EXPECT_EQ(parsed.subs[0].attr, 3u);
  ASSERT_EQ(parsed.subs[0].lookups.size(), 1u);
  EXPECT_EQ(parsed.subs[0].lookups[0].path, (std::vector<NodeAddr>{0, 2}));
  EXPECT_EQ(parsed.subs[0].lookups[0].hops, 1u);
  EXPECT_TRUE(parsed.subs[0].lookups[0].ok);
  EXPECT_EQ(parsed.subs[0].lookups[0].duration_ns, 11u);
  ASSERT_EQ(parsed.subs[0].probes.size(), 1u);
  EXPECT_EQ(parsed.subs[0].probes[0].node, 2u);
  EXPECT_EQ(parsed.subs[0].probes[0].hits, 1u);
  EXPECT_EQ(parsed.subs[0].probes[0].dir_size, 9u);
}

TEST(TraceRoundTrip, RejectsMalformedLines) {
  QueryTrace out;
  std::string err;
  EXPECT_FALSE(ParseTraceLine("", out, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(ParseTraceLine("{", out, &err));
  EXPECT_FALSE(ParseTraceLine("[]", out, &err));
  EXPECT_FALSE(ParseTraceLine(R"({"system":"X"})", out, &err));
  // Well-formed object followed by trailing garbage.
  const std::string good = Serialize(QueryTrace{});
  EXPECT_TRUE(ParseTraceLine(good, out, &err)) << err;
  EXPECT_FALSE(ParseTraceLine(good + "x", out, &err));
}

TEST(TraceRoundTrip, EverySystemsRealTracesSurvive) {
  // Real traces from all four systems — notably MAAN's two lookups per
  // sub-query (one per range bound) — must round-trip byte-exact.
  for (const auto kind :
       {harness::SystemKind::kLorm, harness::SystemKind::kMercury,
        harness::SystemKind::kSword, harness::SystemKind::kMaan}) {
    auto bed = testutil::MakeBed(kind);
    MemoryTraceSink sink;
    SetGlobalTraceSink(&sink);
    harness::QueryExperimentConfig cfg;
    cfg.requesters = 4;
    cfg.queries_per_requester = 2;
    cfg.attrs_per_query = 2;
    cfg.range = true;
    cfg.jobs = 1;
    harness::RunQueries(*bed.service, *bed.workload, cfg);
    SetGlobalTraceSink(nullptr);
    const auto traces = sink.Take();
    ASSERT_EQ(traces.size(), 8u);
    for (const QueryTrace& t : traces) {
      ExpectRoundTrips(t);
      if (kind == harness::SystemKind::kMaan) {
        for (const SubQueryTrace& sub : t.subs) {
          EXPECT_EQ(sub.lookups.size(), 2u)
              << "MAAN resolves a range with one lookup per bound";
        }
      }
    }
  }
}

TEST(MetricsParse, RoundTripsRegistryDump) {
  MetricsOn on;
  Registry::Global().GetCounter("test.parse.counter").Add(17);
  Histogram& h = Registry::Global().GetHistogram(
      "test.parse.hist", Histogram::LinearBounds(0.0, 1.0, 3));
  h.Record(0.5);
  h.Record(99.0);
  std::ostringstream os;
  Registry::Global().WriteJson(os);

  ParsedMetrics m;
  std::string err;
  ASSERT_TRUE(ParseMetricsJson(os.str(), m, &err)) << err;
  ASSERT_EQ(m.counters.count("test.parse.counter"), 1u);
  EXPECT_EQ(m.counters.at("test.parse.counter"), 17u);
  ASSERT_EQ(m.histograms.count("test.parse.hist"), 1u);
  const auto& hist = m.histograms.at("test.parse.hist");
  EXPECT_EQ(hist.bounds, (std::vector<double>{1, 2, 3}));
  ASSERT_EQ(hist.counts.size(), 4u);
  EXPECT_EQ(hist.count, 2u);
  EXPECT_DOUBLE_EQ(hist.sum, 99.5);
  EXPECT_FALSE(ParseMetricsJson("{\"x\":", m, &err));
}

// ---- Anomaly detectors ----------------------------------------------------

QueryTrace CleanTrace(std::uint64_t id) {
  QueryTrace t;
  t.system = "SWORD";
  t.query_id = id;
  SubQueryTrace& s = t.subs.emplace_back();
  s.attr = 1;
  LookupTrace& l = s.lookups.emplace_back();
  l.path = {0, 5, 9};
  l.hops = 2;
  l.ok = true;
  s.probes.push_back({9, 3, 40});
  return t;
}

TEST(Anomalies, CleanTracesRaiseNothing) {
  std::vector<QueryTrace> traces;
  for (std::uint64_t i = 0; i < 4; ++i) traces.push_back(CleanTrace(i));
  AnomalyConfig cfg;
  cfg.nodes = 16;
  const TraceReport report = AnalyzeTraces(std::move(traces), cfg);
  EXPECT_TRUE(report.anomalies.empty());
  EXPECT_TRUE(GatePasses(report, {}));
}

TEST(Anomalies, EachDetectorFires) {
  AnomalyConfig cfg;
  cfg.nodes = 16;     // chord bound: 2*ceil(log2 16) + 4 = 12 hops
  cfg.dimension = 2;  // cycloid bound: 4*2 + 8 = 16 hops
  std::vector<QueryTrace> traces;

  QueryTrace loop = CleanTrace(0);
  loop.subs[0].lookups[0].path = {1, 6, 3, 6, 2};
  loop.subs[0].lookups[0].hops = 4;
  traces.push_back(loop);

  QueryTrace chord_over = CleanTrace(1);
  chord_over.subs[0].lookups[0].path.clear();
  for (NodeAddr a = 0; a < 14; ++a) {
    chord_over.subs[0].lookups[0].path.push_back(a);
  }
  chord_over.subs[0].lookups[0].hops = 13;  // > 12
  traces.push_back(chord_over);

  QueryTrace cycloid_over = CleanTrace(2);
  cycloid_over.system = "LORM";
  cycloid_over.subs[0].lookups[0].hops = 17;  // > 16
  traces.push_back(cycloid_over);

  QueryTrace burst = CleanTrace(3);
  burst.subs[0].lookups[0].dead_links_skipped = 8;  // >= default burst 8
  traces.push_back(burst);

  QueryTrace overrun = CleanTrace(4);
  overrun.subs[0].probes.clear();
  for (NodeAddr a = 0; a < 32; ++a) {
    overrun.subs[0].probes.push_back({a, 0, 10});  // 32 probes, zero hits
  }
  traces.push_back(overrun);

  const TraceReport report = AnalyzeTraces(std::move(traces), cfg);
  ASSERT_EQ(report.anomalies.size(), 5u);
  // Sorted by (system, query id): LORM first, then the SWORD traces.
  EXPECT_EQ(report.anomalies[0].kind, Anomaly::Kind::kHopBoundExceeded);
  EXPECT_EQ(report.anomalies[0].system, "LORM");
  EXPECT_EQ(report.anomalies[1].kind, Anomaly::Kind::kRoutingLoop);
  EXPECT_EQ(report.anomalies[1].query_id, 0u);
  EXPECT_EQ(report.anomalies[2].kind, Anomaly::Kind::kHopBoundExceeded);
  EXPECT_EQ(report.anomalies[2].query_id, 1u);
  EXPECT_EQ(report.anomalies[3].kind, Anomaly::Kind::kDeadLinkBurst);
  EXPECT_EQ(report.anomalies[3].query_id, 3u);
  EXPECT_EQ(report.anomalies[4].kind, Anomaly::Kind::kZeroHitWalkOverrun);
  EXPECT_EQ(report.anomalies[4].query_id, 4u);
  EXPECT_FALSE(GatePasses(report, {}));
}

TEST(Anomalies, DriftRowsGateTheReport) {
  const auto ok = EvaluateDrift("LORM", "hops/lookup", 6.5, 6.0, 0.35);
  EXPECT_TRUE(ok.ok);
  EXPECT_NEAR(ok.drift, 0.5 / 6.0, 1e-12);
  const auto bad = EvaluateDrift("MAAN", "hops/lookup", 9.0, 4.3, 0.35);
  EXPECT_FALSE(bad.ok);
  TraceReport clean;
  EXPECT_TRUE(GatePasses(clean, {ok}));
  EXPECT_FALSE(GatePasses(clean, {ok, bad}));
}

// ---- Trace timing ---------------------------------------------------------

TEST(TraceTiming, DurationsRecordedWhenTracing) {
  auto bed = testutil::MakeBed(harness::SystemKind::kMercury);
  MemoryTraceSink sink;
  SetGlobalTraceSink(&sink);
  Rng rng(0xC10CC);
  const resource::MultiQuery q = bed.workload->MakeRangeQuery(
      2, 3, resource::RangeStyle::kBounded, rng);
  {
    QueryTraceScope scope(bed.service->name());
    bed.service->Query(q);
  }
  SetGlobalTraceSink(nullptr);
  const auto traces = sink.Take();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_GT(traces[0].duration_ns, 0u);
  std::uint64_t lookup_total = 0;
  for (const SubQueryTrace& sub : traces[0].subs) {
    for (const LookupTrace& l : sub.lookups) {
      lookup_total += l.duration_ns;
      // Each routing walk fits inside the query that issued it.
      EXPECT_LE(l.duration_ns, traces[0].duration_ns);
    }
  }
  EXPECT_GT(lookup_total, 0u);
}

// ---- Analyzer determinism -------------------------------------------------

std::vector<QueryTrace> ReplayTraces(std::size_t jobs) {
  auto bed = testutil::MakeBed(harness::SystemKind::kMercury);
  MemoryTraceSink sink;
  SetGlobalTraceSink(&sink);
  harness::QueryExperimentConfig cfg;
  cfg.requesters = 8;
  cfg.queries_per_requester = 4;
  cfg.attrs_per_query = 2;
  cfg.range = true;
  cfg.jobs = jobs;
  harness::RunQueries(*bed.service, *bed.workload, cfg);
  SetGlobalTraceSink(nullptr);
  auto traces = sink.Take();
  // Wall-clock durations are the one legitimately nondeterministic field;
  // zero them so what remains must be byte-identical.
  for (QueryTrace& t : traces) {
    t.duration_ns = 0;
    for (SubQueryTrace& sub : t.subs) {
      for (LookupTrace& l : sub.lookups) l.duration_ns = 0;
    }
  }
  // The process-wide id counter advanced between the two replays; reports
  // must depend only on id order, so rebase each block to 0.
  const std::uint64_t base =
      std::min_element(traces.begin(), traces.end(),
                       [](const QueryTrace& a, const QueryTrace& b) {
                         return a.query_id < b.query_id;
                       })
          ->query_id;
  for (QueryTrace& t : traces) t.query_id -= base;
  return traces;
}

std::string RenderedReport(std::vector<QueryTrace> traces) {
  const TraceReport report = AnalyzeTraces(std::move(traces));
  std::ostringstream os;
  RenderReport(os, report);
  RenderReportJson(os, report);
  return os.str();
}

TEST(AnalyzerDeterminism, ByteIdenticalReportAcrossJobsAndTraceOrder) {
  const auto seq = ReplayTraces(1);
  const auto par = ReplayTraces(2);
  ASSERT_EQ(seq.size(), par.size());
  const std::string report = RenderedReport(seq);
  EXPECT_EQ(report, RenderedReport(par));

  // Consumption order must not matter either: the analyzer re-sorts.
  auto reversed = seq;
  std::reverse(reversed.begin(), reversed.end());
  EXPECT_EQ(report, RenderedReport(reversed));
}

// ---- --jobs independence --------------------------------------------------

TEST(MetricsJobsIndependence, ReplayTotalsMatchAcrossJobCounts) {
  // The sharded instruments are commutative sums, so a parallel replay must
  // record exactly the totals of a sequential one — and the (fixed) query
  // accounting itself is bit-identical for any --jobs.
  harness::QueryExperimentConfig cfg;
  cfg.requesters = 10;
  cfg.queries_per_requester = 5;
  cfg.attrs_per_query = 2;
  cfg.range = true;

  auto run = [&](std::size_t jobs) {
    auto bed = testutil::MakeBed(harness::SystemKind::kMaan);
    MetricsOn on;
    cfg.jobs = jobs;
    const auto r = harness::RunQueries(*bed.service, *bed.workload, cfg);
    Histogram& h = Registry::Global().GetHistogram(
        "MAAN.query.hops", Histogram::LinearBounds(0.0, 1.0, 64));
    return std::tuple{r.avg_hops, r.avg_visited, r.failures, h.BucketCounts(),
                      h.TotalCount(), h.Sum()};
  };

  const auto seq = run(1);
  const auto par = run(4);
  EXPECT_EQ(seq, par);
}

// ---- Dump ordering and exposition -----------------------------------------

TEST(MetricsRegistry, JsonDumpIsNameSortedAndStable) {
  // The dump order is the registry map's name order, never registration
  // order — lorm-analyze and the golden-file diffs rely on it.
  MetricsOn on;
  Registry::Global().GetCounter("test.sort.zebra").Add(1);
  Registry::Global().GetCounter("test.sort.alpha").Add(2);
  Registry::Global().GetCounter("test.sort.mid").Add(3);
  std::ostringstream os;
  Registry::Global().WriteJson(os);
  const std::string json = os.str();
  const auto alpha = json.find("test.sort.alpha");
  const auto mid = json.find("test.sort.mid");
  const auto zebra = json.find("test.sort.zebra");
  ASSERT_NE(alpha, std::string::npos);
  ASSERT_NE(mid, std::string::npos);
  ASSERT_NE(zebra, std::string::npos);
  EXPECT_LT(alpha, mid);
  EXPECT_LT(mid, zebra);
  // Byte-stable: a second dump of the same state is identical.
  std::ostringstream again;
  Registry::Global().WriteJson(again);
  EXPECT_EQ(again.str(), json);
}

TEST(MetricsExposition, TextFollowsPrometheusGrammar) {
  MetricsOn on;
  Registry::Global().GetCounter("test.expo.counter").Add(7);
  Histogram& h = Registry::Global().GetHistogram(
      "test.expo.hist", Histogram::LinearBounds(0.0, 1.0, 2));
  h.Record(0.5);
  h.Record(1.5);
  h.Record(99.0);
  const std::string text = Registry::Global().ExpositionText();

  // Targeted content: our counter and the histogram's cumulative buckets.
  EXPECT_NE(text.find("# TYPE lorm_test_expo_counter counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("lorm_test_expo_counter_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lorm_test_expo_hist histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("lorm_test_expo_hist_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("lorm_test_expo_hist_bucket{le=\"2\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("lorm_test_expo_hist_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("lorm_test_expo_hist_sum 101\n"), std::string::npos);
  EXPECT_NE(text.find("lorm_test_expo_hist_count 3\n"), std::string::npos);

  // Grammar: every line is either a "# TYPE <name> counter|histogram"
  // comment or "<name>[{le="..."}] <value>" with a legal metric name
  // ([a-zA-Z_:][a-zA-Z0-9_:]*, always our "lorm_" prefix).
  const auto legal_name = [](std::string_view name) {
    if (name.substr(0, 5) != "lorm_") return false;
    for (const char ch : name) {
      const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                      (ch >= '0' && ch <= '9') || ch == '_' || ch == ':';
      if (!ok) return false;
    }
    return true;
  };
  std::istringstream lines(text);
  std::string line;
  std::size_t checked = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    ++checked;
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string rest = line.substr(7);
      const auto sp = rest.find(' ');
      ASSERT_NE(sp, std::string::npos) << line;
      EXPECT_TRUE(legal_name(rest.substr(0, sp))) << line;
      const std::string type = rest.substr(sp + 1);
      EXPECT_TRUE(type == "counter" || type == "histogram") << line;
      continue;
    }
    const auto sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    std::string name = line.substr(0, sp);
    const auto brace = name.find('{');
    if (brace != std::string::npos) {
      EXPECT_EQ(name.back(), '}') << line;
      const std::string labels = name.substr(brace);
      EXPECT_EQ(labels.rfind("{le=\"", 0), 0u) << line;
      name = name.substr(0, brace);
    }
    EXPECT_TRUE(legal_name(name)) << line;
    // The value parses as a number with nothing left over.
    const std::string value = line.substr(sp + 1);
    std::size_t used = 0;
    (void)std::stod(value, &used);
    EXPECT_EQ(used, value.size()) << line;
  }
  EXPECT_GT(checked, 0u);
}

// ---- Tail-latency drift gate ----------------------------------------------

TEST(Anomalies, TailLatencyDriftFiresOnlyWhenEnabled) {
  // 20 fast queries and one 1000x outlier: p99 lands on the outlier, so a
  // ratio gate of 10 fires; the default (0 = off) must stay silent because
  // wall-clock tails are machine-dependent.
  std::vector<QueryTrace> traces;
  for (std::uint64_t i = 0; i < 20; ++i) {
    QueryTrace t = CleanTrace(i);
    t.duration_ns = 1000;
    traces.push_back(t);
  }
  QueryTrace slow = CleanTrace(20);
  slow.duration_ns = 1000000;
  traces.push_back(slow);

  AnomalyConfig off;
  off.nodes = 16;
  const TraceReport quiet = AnalyzeTraces(traces, off);
  EXPECT_TRUE(quiet.anomalies.empty());
  ASSERT_EQ(quiet.systems.size(), 1u);
  EXPECT_EQ(quiet.systems[0].query_tail_ns.count, 21u);

  AnomalyConfig on;
  on.nodes = 16;
  on.p99_drift_ratio = 10.0;
  const TraceReport report = AnalyzeTraces(std::move(traces), on);
  ASSERT_EQ(report.anomalies.size(), 1u);
  EXPECT_EQ(report.anomalies[0].kind, Anomaly::Kind::kTailLatencyDrift);
  EXPECT_EQ(report.anomalies[0].system, "SWORD");
  EXPECT_FALSE(GatePasses(report, {}));
}

// ---- Tee sink under the parallel replay engine -----------------------------

TEST(TraceSinks, TeeDuplicatesEveryTraceUnderConcurrentReplay) {
  // Two memory sinks behind a tee, fed by a --jobs 2 replay (worker threads
  // finish traces concurrently — TSan covers the locking in CI). Both sinks
  // must hold the same trace set, and its totals must equal the replay's
  // own QueryStats accounting.
  auto bed = testutil::MakeBed(harness::SystemKind::kLorm);
  MemoryTraceSink left;
  MemoryTraceSink right;
  TeeTraceSink tee(left, right);
  SetGlobalTraceSink(&tee);
  harness::QueryExperimentConfig cfg;
  cfg.requesters = 8;
  cfg.queries_per_requester = 4;
  cfg.attrs_per_query = 2;
  cfg.range = true;
  cfg.jobs = 2;
  const auto r = harness::RunQueries(*bed.service, *bed.workload, cfg);
  SetGlobalTraceSink(nullptr);

  auto normalize = [](std::vector<QueryTrace> traces) {
    std::sort(traces.begin(), traces.end(),
              [](const QueryTrace& a, const QueryTrace& b) {
                return a.query_id < b.query_id;
              });
    std::string bytes;
    for (QueryTrace& t : traces) {
      t.duration_ns = 0;  // compare structure, not clock reads
      for (SubQueryTrace& sub : t.subs) {
        for (LookupTrace& l : sub.lookups) l.duration_ns = 0;
      }
      bytes += Serialize(t);
    }
    return std::pair{traces, bytes};
  };
  const auto [ltraces, lbytes] = normalize(left.Take());
  const auto [rtraces, rbytes] = normalize(right.Take());
  ASSERT_EQ(ltraces.size(), r.queries);
  EXPECT_EQ(lbytes, rbytes);

  HopCount hops = 0;
  std::size_t probes = 0;
  for (const QueryTrace& t : ltraces) {
    for (const SubQueryTrace& sub : t.subs) {
      for (const LookupTrace& l : sub.lookups) hops += l.hops;
      probes += sub.probes.size();
    }
  }
  EXPECT_NEAR(static_cast<double>(hops) / static_cast<double>(r.queries),
              r.avg_hops, 1e-9);
  EXPECT_NEAR(static_cast<double>(probes) / static_cast<double>(r.queries),
              r.avg_visited, 1e-9);
}

// ---- Chrome-trace export ---------------------------------------------------

TEST(ChromeTrace, ExportIsBalancedJsonWithOneTrackPerSystem) {
  std::vector<QueryTrace> traces;
  QueryTrace a = CleanTrace(0);
  a.duration_ns = 5000;
  a.subs[0].lookups[0].duration_ns = 1200;
  traces.push_back(a);
  QueryTrace b = CleanTrace(1);
  b.system = "LORM";
  b.duration_ns = 3000;
  traces.push_back(b);

  std::ostringstream os;
  WriteChromeTrace(os, std::move(traces));
  const std::string out = os.str();
  ASSERT_EQ(out.rfind("{\"traceEvents\":[", 0), 0u) << out.substr(0, 40);
  EXPECT_EQ(out.substr(out.size() - 2), "]}");
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"M\""), std::string::npos);  // track metadata
  EXPECT_NE(out.find("SWORD"), std::string::npos);
  EXPECT_NE(out.find("LORM"), std::string::npos);

  // Braces and brackets balance outside string literals, and never go
  // negative — the cheap structural check CI's python json.tool smoke
  // duplicates on real bench output.
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char ch = out[i];
    if (in_string) {
      if (ch == '\\') {
        ++i;
      } else if (ch == '"') {
        in_string = false;
      }
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{') ++braces;
    if (ch == '}') --braces;
    if (ch == '[') ++brackets;
    if (ch == ']') --brackets;
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

}  // namespace
}  // namespace lorm::obs
