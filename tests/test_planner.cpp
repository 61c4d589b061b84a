// The selectivity-driven query planner (`--plan`) is a pure execution-order
// optimization: for every system, cache setting and membership history, a
// planned query must return exactly the providers the classic path returns.
// These tests pin that equivalence by fuzzing twin services (planner off/on)
// with identical query streams, and cover the planner's parts in isolation:
// the estimator's directory mirroring, the galloping intersection and the
// order-independent joined result-cache key.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "discovery/d1ht_service.hpp"
#include "discovery/directory.hpp"
#include "discovery/join.hpp"
#include "discovery/lorm_service.hpp"
#include "discovery/maan_service.hpp"
#include "discovery/mercury_service.hpp"
#include "discovery/selectivity.hpp"
#include "discovery/sword_service.hpp"
#include "obs/metrics.hpp"
#include "service_test_util.hpp"

namespace lorm {
namespace {

using harness::SystemKind;
using testutil::MakeBed;

std::uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name).Value();
}

/// Scoped metrics recording (the registry is process-global; tests read
/// counter deltas, never absolute values).
struct MetricsScope {
  MetricsScope() { obs::SetMetricsEnabled(true); }
  ~MetricsScope() { obs::SetMetricsEnabled(false); }
};

const discovery::SelectivityEstimator& EstimatorOf(
    SystemKind kind, const discovery::DiscoveryService& s) {
  switch (kind) {
    case SystemKind::kLorm:
      return dynamic_cast<const discovery::LormService&>(s).selectivity();
    case SystemKind::kMercury:
      return dynamic_cast<const discovery::MercuryService&>(s).selectivity();
    case SystemKind::kSword:
      return dynamic_cast<const discovery::SwordService&>(s).selectivity();
    case SystemKind::kD1ht:
      return dynamic_cast<const discovery::D1htService&>(s).selectivity();
    default:
      return dynamic_cast<const discovery::MaanService&>(s).selectivity();
  }
}

/// Churn applied identically to both twins: a wave of leaves frees overlay
/// positions (LORM's Cycloid starts full at the Small scale), then fresh
/// addresses join and everything restabilizes. With `crashes` a FailNode
/// wave follows: MAAN's crash-time twin reconciliation (and, replicated,
/// the successor-list restore protocol) keeps the attribute-keyed and
/// value-keyed record sets in lockstep, so planned and classic resolution
/// must agree even after abrupt failures.
void ApplyChurn(discovery::DiscoveryService& s, std::size_t n, bool crashes) {
  for (NodeAddr a = 3; a < 45; a += 7) s.LeaveNode(a);
  s.Maintain();
  for (NodeAddr a = 0; a < 3; ++a) {
    s.JoinNode(static_cast<NodeAddr>(n + a));
  }
  s.Maintain();
  if (crashes) {
    for (NodeAddr a = 50; a < 92; a += 7) s.FailNode(a);
    s.Maintain();
  }
}

void ExpectPlannerEquivalent(SystemKind kind, bool cache, bool churn,
                             bool crashes = false, std::size_t replicas = 1) {
  harness::Setup setup_off = harness::Setup::Small();
  setup_off.cache = cache;
  setup_off.replicas = replicas;
  harness::Setup setup_on = setup_off;
  setup_on.plan = true;
  auto off = MakeBed(kind, setup_off);
  auto on = MakeBed(kind, setup_on);
  if (churn) {
    ApplyChurn(*off.service, setup_off.nodes, crashes);
    ApplyChurn(*on.service, setup_on.nodes, crashes);
    ASSERT_EQ(off.service->Nodes(), on.service->Nodes());
  }

  // The estimator mirrors the directories exactly, through advertising and
  // (under churn) through every re-homed entry.
  const auto& est = EstimatorOf(kind, *on.service);
  ASSERT_TRUE(est.configured());
  EXPECT_EQ(est.TotalCount(), on.service->TotalInfoPieces());

  const auto nodes = off.service->Nodes();
  Rng rng(0xD15C0FE2ull + static_cast<std::uint64_t>(kind) * 977 +
          (cache ? 31 : 0) + (churn ? 17 : 0) + (crashes ? 131 : 0) +
          replicas * 7);
  discovery::QueryScratch s_off, s_on;
  for (int i = 0; i < 60; ++i) {
    const NodeAddr requester = nodes[rng.NextBelow(nodes.size())];
    const std::size_t attrs = 1 + rng.NextBelow(4);
    const auto q =
        i % 3 == 2
            ? off.workload->MakePointQuery(attrs, requester, rng)
            : off.workload->MakeRangeQuery(attrs, requester,
                                           resource::RangeStyle::kBounded,
                                           rng);
    const auto r_off = off.service->Query(q, s_off);
    const auto r_on = on.service->Query(q, s_on);
    ASSERT_EQ(r_off.providers, r_on.providers)
        << off.service->name() << " cache=" << cache << " churn=" << churn
        << " query " << i;
    ASSERT_EQ(r_off.per_sub.size(), r_on.per_sub.size());
    for (std::size_t sub = 0; sub < r_off.per_sub.size(); ++sub) {
      // A pruned sub-query legitimately reports no matches — but only when
      // the whole query came up empty.
      if (r_on.per_sub[sub].empty() && r_on.providers.empty()) continue;
      std::vector<NodeAddr> p_off, p_on;
      discovery::ProvidersOf(r_off.per_sub[sub], p_off);
      discovery::ProvidersOf(r_on.per_sub[sub], p_on);
      EXPECT_EQ(p_off, p_on)
          << off.service->name() << " sub " << sub << " of query " << i;
    }
  }
}

TEST(PlannerEquivalence, AllSystemsStatic) {
  for (const auto kind : harness::AllSystems()) {
    ExpectPlannerEquivalent(kind, /*cache=*/false, /*churn=*/false);
  }
}

TEST(PlannerEquivalence, AllSystemsWithResultCache) {
  for (const auto kind : harness::AllSystems()) {
    ExpectPlannerEquivalent(kind, /*cache=*/true, /*churn=*/false);
  }
}

TEST(PlannerEquivalence, AllSystemsUnderGracefulChurn) {
  for (const auto kind : harness::AllSystems()) {
    ExpectPlannerEquivalent(kind, /*cache=*/false, /*churn=*/true);
  }
}

// The crash-churn coverage below was impossible before MAAN reconciled its
// attribute-keyed and value-keyed record copies at crash time: a FailNode
// could strand one copy of a tuple, so planned resolution (attribute
// records) and classic resolution (value records) disagreed.

TEST(PlannerEquivalence, AllSystemsUnderCrashChurn) {
  for (const auto kind : harness::AllSystems()) {
    ExpectPlannerEquivalent(kind, /*cache=*/false, /*churn=*/true,
                            /*crashes=*/true);
  }
}

TEST(PlannerEquivalence, AllSystemsUnderCrashChurnWithResultCache) {
  for (const auto kind : harness::AllSystems()) {
    ExpectPlannerEquivalent(kind, /*cache=*/true, /*churn=*/true,
                            /*crashes=*/true);
  }
}

TEST(PlannerEquivalence, AllSystemsReplicatedUnderCrashChurn) {
  for (const auto kind : harness::AllSystems()) {
    ExpectPlannerEquivalent(kind, /*cache=*/false, /*churn=*/true,
                            /*crashes=*/true, /*replicas=*/3);
  }
}

TEST(PlannerEquivalence, ParallelPlannedReplayIsDeterministic) {
  // The planner's scratch is per-worker; sharded replay must stay
  // bit-identical across jobs, as the classic path guarantees.
  for (const auto kind : {SystemKind::kSword, SystemKind::kMaan}) {
    harness::Setup setup = harness::Setup::Small();
    setup.plan = true;
    auto bed = MakeBed(kind, setup);
    harness::QueryExperimentConfig cfg;
    cfg.requesters = 8;
    cfg.queries_per_requester = 4;
    cfg.attrs_per_query = 3;
    cfg.range = true;
    cfg.jobs = 1;
    const auto serial = harness::RunQueries(*bed.service, *bed.workload, cfg);
    cfg.jobs = 4;
    const auto parallel =
        harness::RunQueries(*bed.service, *bed.workload, cfg);
    EXPECT_EQ(serial.total_hops, parallel.total_hops);
    EXPECT_EQ(serial.total_visited, parallel.total_visited);
    EXPECT_EQ(serial.avg_matches, parallel.avg_matches);
    EXPECT_EQ(serial.failures, parallel.failures);
  }
}

// ---- Selectivity estimator -------------------------------------------------

TEST(Selectivity, DirectoryMirrorsInsertTakeAndDestruction) {
  resource::Workload workload(harness::Setup::Small().MakeWorkloadConfig());
  discovery::SelectivityEstimator est;
  est.Configure(workload.registry());
  {
    discovery::Directory<std::uint64_t> dir;
    dir.SetEstimator(&est);
    for (int i = 0; i < 10; ++i) {
      discovery::Directory<std::uint64_t>::Entry e;
      e.info = {0, resource::AttrValue::Number(1.0),
                static_cast<NodeAddr>(i)};
      e.ordinal = 0.1 * i;
      dir.Insert(std::move(e));
    }
    for (int i = 0; i < 5; ++i) {
      discovery::Directory<std::uint64_t>::Entry e;
      e.info = {1, resource::AttrValue::Number(2.0),
                static_cast<NodeAddr>(i)};
      e.ordinal = 0.5;
      dir.Insert(std::move(e));
    }
    EXPECT_EQ(est.CountOf(0), 10u);
    EXPECT_EQ(est.CountOf(1), 5u);
    EXPECT_EQ(est.TotalCount(), 15u);

    const auto taken =
        dir.TakeIf([](const auto& e) { return e.info.attr == 0; });
    EXPECT_EQ(taken.size(), 10u);
    EXPECT_EQ(est.CountOf(0), 0u);
    EXPECT_EQ(est.TotalCount(), 5u);
  }
  // Dropping the directory (node crash / re-homing) surrenders the rest.
  EXPECT_EQ(est.TotalCount(), 0u);
}

TEST(Selectivity, NarrowRangesEstimateBelowWide) {
  resource::Workload workload(harness::Setup::Small().MakeWorkloadConfig());
  discovery::SelectivityEstimator est;
  est.Configure(workload.registry());
  const auto& schema = workload.registry().Get(0);
  const double lo = schema.ordinal_min();
  const double span = schema.ordinal_max() - lo;
  Rng rng(42);
  for (int i = 0; i < 500; ++i) {
    est.Add(0, lo + span * rng.NextDouble());
  }
  const double narrow = est.EstimateMatches(0, lo, lo + span * 0.05);
  const double wide = est.EstimateMatches(0, lo, lo + span * 0.6);
  EXPECT_LT(narrow, wide);
  // Cold attributes fall back to the workload prior but still rank by width.
  const double cold_narrow = est.EstimateMatches(1, lo, lo + span * 0.05);
  const double cold_wide = est.EstimateMatches(1, lo, lo + span * 0.6);
  EXPECT_LT(cold_narrow, cold_wide);
  EXPECT_GT(cold_narrow, 0.0);
}

// ---- Galloping intersection ------------------------------------------------

TEST(Join, IntersectSortedMatchesSetIntersection) {
  Rng rng(0x1A7E45EC7ull);
  std::vector<NodeAddr> acc, cur, tmp, expect;
  for (int round = 0; round < 300; ++round) {
    acc.clear();
    cur.clear();
    for (NodeAddr p = 0; p < 120; ++p) {
      if (rng.NextBelow(100) < 1u + round % 50) acc.push_back(p);
      if (rng.NextBelow(100) < 1u + (round * 7) % 60) cur.push_back(p);
    }
    expect.clear();
    std::set_intersection(acc.begin(), acc.end(), cur.begin(), cur.end(),
                          std::back_inserter(expect));
    discovery::IntersectSorted(acc, cur, tmp);
    ASSERT_EQ(acc, expect) << "round " << round;
  }
}

// ---- Order-independent joined result-cache key -----------------------------

void ExpectCrossOrderJoinedHit(bool plan) {
  MetricsScope metrics;
  harness::Setup setup = harness::Setup::Small();
  setup.cache = true;
  setup.plan = plan;
  auto bed = MakeBed(SystemKind::kSword, setup);

  Rng rng(77);
  // Full-span ranges: every sub-query matches, so nothing is pruned and the
  // joined entry is guaranteed to be stored.
  auto q = bed.workload->MakeRangeQuery(3, 5, resource::RangeStyle::kFullSpan,
                                        rng);
  auto reversed = q;
  std::reverse(reversed.subs.begin(), reversed.subs.end());

  const std::uint64_t jh0 = CounterValue("lorm.cache.result.joined_hits");
  const auto first = bed.service->Query(q);
  EXPECT_EQ(CounterValue("lorm.cache.result.joined_hits"), jh0);
  const auto second = bed.service->Query(reversed);
  EXPECT_EQ(CounterValue("lorm.cache.result.joined_hits"), jh0 + 1)
      << "same sub-queries in reverse order must hit the joined cache "
         "(plan=" << plan << ")";
  EXPECT_EQ(first.providers, second.providers);
  // The cached per-sub matches come back in the *caller's* sub order.
  ASSERT_EQ(second.per_sub.size(), q.subs.size());
  for (std::size_t i = 0; i < q.subs.size(); ++i) {
    std::vector<NodeAddr> a, b;
    discovery::ProvidersOf(first.per_sub[i], a);
    discovery::ProvidersOf(second.per_sub[q.subs.size() - 1 - i], b);
    EXPECT_EQ(a, b) << "sub " << i;
  }
}

TEST(ResultCache, JoinedKeyIsOrderIndependentClassic) {
  ExpectCrossOrderJoinedHit(/*plan=*/false);
}

TEST(ResultCache, JoinedKeyIsOrderIndependentPlanned) {
  ExpectCrossOrderJoinedHit(/*plan=*/true);
}

}  // namespace
}  // namespace lorm
