// LORM service tests: placement structure, Proposition 3.1, query
// completeness, churn re-homing, and metrics.
#include "discovery/lorm_service.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/stats.hpp"
#include "service_test_util.hpp"

namespace lorm::discovery {
namespace {

using harness::SystemKind;
using resource::AttrValue;
using resource::MultiQuery;
using resource::RangeStyle;
using harness::BruteForceProviders;
using testutil::MakeBed;

LormService* AsLorm(DiscoveryService* s) {
  return dynamic_cast<LormService*>(s);
}

TEST(LormPlacement, SameAttributeMapsToSameCluster) {
  auto bed = MakeBed(SystemKind::kLorm);
  auto* lorm = AsLorm(bed.service.get());
  ASSERT_NE(lorm, nullptr);
  for (AttrId a = 0; a < bed.workload->registry().size(); ++a) {
    const auto k1 = lorm->KeyFor(a, AttrValue::Number(1.0));
    const auto k2 = lorm->KeyFor(a, AttrValue::Number(999.0));
    EXPECT_EQ(k1.a, k2.a) << "attribute " << a
                          << " split across clusters";
  }
}

TEST(LormPlacement, CyclicIndexIsMonotoneInValue) {
  auto bed = MakeBed(SystemKind::kLorm);
  auto* lorm = AsLorm(bed.service.get());
  unsigned prev = 0;
  for (double v = 1.0; v <= 1000.0; v += 13.7) {
    const auto key = lorm->KeyFor(0, AttrValue::Number(v));
    EXPECT_GE(key.k, prev);
    EXPECT_LT(key.k, bed.setup.dimension);
    prev = key.k;
  }
  EXPECT_EQ(lorm->KeyFor(0, AttrValue::Number(1.0)).k, 0u);
  EXPECT_EQ(lorm->KeyFor(0, AttrValue::Number(1000.0)).k,
            bed.setup.dimension - 1);
}

TEST(LormPlacement, InfoOfOneAttributeStaysInOneCluster) {
  auto bed = MakeBed(SystemKind::kLorm);
  auto* lorm = AsLorm(bed.service.get());
  const auto& net = lorm->overlay();
  // All directory entries of attribute 0 must live on nodes of the cluster
  // owning H(attr0) (Fig. 2 of the paper).
  const auto cluster = net.ClusterMembersOf(lorm->KeyFor(0, AttrValue::Number(1)).a);
  const std::set<NodeAddr> cluster_set(cluster.begin(), cluster.end());
  // Probe via a full-span range query: all matches of attribute 0.
  MultiQuery q;
  q.requester = 0;
  q.subs.push_back({0, resource::ValueRange::Between(AttrValue::Number(1),
                                                     AttrValue::Number(1000))});
  const auto res = bed.service->Query(q);
  // Walked nodes are within one cluster: visited <= 1 + cluster size.
  EXPECT_LE(res.stats.visited_nodes, cluster.size() + 1);
  // And the full span of attribute 0 recovered every advertised tuple.
  EXPECT_EQ(res.per_sub[0].size(), bed.setup.infos_per_attribute);
}

TEST(LormQuery, PointQueryFindsExactAdvertisements) {
  auto bed = MakeBed(SystemKind::kLorm);
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const auto& info = bed.infos[rng.NextBelow(bed.infos.size())];
    MultiQuery q;
    q.requester = static_cast<NodeAddr>(rng.NextBelow(bed.setup.nodes));
    q.subs.push_back({info.attr, resource::ValueRange::Point(info.value)});
    const auto res = bed.service->Query(q);
    EXPECT_FALSE(res.stats.failed);
    EXPECT_EQ(res.stats.lookups, 1u);
    EXPECT_EQ(res.stats.visited_nodes, 1u);  // point query: the root only
    EXPECT_TRUE(std::count(res.providers.begin(), res.providers.end(),
                           info.provider))
        << "advertised tuple not found";
    EXPECT_EQ(res.providers, BruteForceProviders(bed.infos, q, *bed.service));
  }
}

// Property (Prop. 3.1 + join correctness): range and multi-attribute queries
// return exactly the brute-force provider sets.
class LormCompleteness
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(LormCompleteness, MatchesBruteForce) {
  const auto [attrs, range] = GetParam();
  auto bed = MakeBed(SystemKind::kLorm);
  Rng rng(42 + attrs);
  for (int i = 0; i < 25; ++i) {
    const NodeAddr req = static_cast<NodeAddr>(rng.NextBelow(bed.setup.nodes));
    const MultiQuery q =
        range ? bed.workload->MakeRangeQuery(attrs, req, RangeStyle::kBounded,
                                             rng)
              : bed.workload->MakePointQuery(attrs, req, rng);
    const auto res = bed.service->Query(q);
    EXPECT_FALSE(res.stats.failed);
    EXPECT_EQ(res.providers, BruteForceProviders(bed.infos, q, *bed.service));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LormCompleteness,
    ::testing::Combine(::testing::Values(1, 2, 3, 5),
                       ::testing::Bool()));

TEST(LormQuery, StatsAccumulateAcrossSubQueries) {
  auto bed = MakeBed(SystemKind::kLorm);
  Rng rng(2);
  const auto q = bed.workload->MakeRangeQuery(4, 0, RangeStyle::kBounded, rng);
  const auto res = bed.service->Query(q);
  EXPECT_EQ(res.stats.lookups, 4u);       // one DHT lookup per attribute
  EXPECT_GE(res.stats.visited_nodes, 4u); // at least each root
  EXPECT_EQ(res.stats.visited_nodes,
            4u + res.stats.walk_steps);   // roots + walk
  EXPECT_EQ(res.per_sub.size(), 4u);
}

TEST(LormChurn, RehomesOnJoinAndLeave) {
  auto bed = MakeBed(SystemKind::kLorm);
  Rng rng(3);
  NodeAddr next = static_cast<NodeAddr>(bed.setup.nodes) + 1000;
  for (int round = 0; round < 30; ++round) {
    if (rng.NextBool() && bed.service->NetworkSize() > 32) {
      const auto nodes = bed.service->Nodes();
      bed.service->LeaveNode(nodes[rng.NextBelow(nodes.size())]);
    } else {
      bed.service->JoinNode(next++);
    }
  }
  // No information lost or misplaced: every query still matches brute force
  // (restricted to live providers).
  for (int i = 0; i < 30; ++i) {
    const auto nodes = bed.service->Nodes();
    const NodeAddr req = nodes[rng.NextBelow(nodes.size())];
    const auto q = bed.workload->MakeRangeQuery(2, req, RangeStyle::kBounded,
                                                rng);
    const auto res = bed.service->Query(q);
    EXPECT_FALSE(res.stats.failed);
    EXPECT_EQ(res.providers, BruteForceProviders(bed.infos, q, *bed.service));
  }
  // Total piece count unchanged (no node fully dissolved the network).
  EXPECT_EQ(bed.service->TotalInfoPieces(), bed.infos.size());
}

TEST(LormMetrics, TotalsAndDistributions) {
  auto bed = MakeBed(SystemKind::kLorm);
  EXPECT_EQ(bed.service->TotalInfoPieces(), bed.infos.size());
  const auto sizes = bed.service->DirectorySizes();
  EXPECT_EQ(sizes.size(), bed.setup.nodes);
  double total = 0;
  for (double s : sizes) total += s;
  EXPECT_DOUBLE_EQ(total, static_cast<double>(bed.infos.size()));
  // Constant-degree overlay.
  for (double links : bed.service->OutlinkCounts()) EXPECT_LE(links, 7.0);
}

TEST(LormConfig, CdfEqualizedPlacementBalancesParetoValues) {
  // Ablation: with the CDF-equalizing LPH the per-node load inside a
  // cluster is flatter than with the linear LPH.
  auto MakeWithCdf = [](bool equalize) {
    const auto setup = harness::Setup::Small();
    auto workload =
        std::make_unique<resource::Workload>(setup.MakeWorkloadConfig());
    LormService::Config cfg;
    cfg.overlay.dimension = setup.dimension;
    cfg.overlay.seed = setup.seed;
    if (equalize) {
      const auto& pareto = workload->value_distribution();
      cfg.value_cdf = [pareto](double v) { return pareto.Cdf(v); };
    }
    auto svc = std::make_unique<LormService>(setup.nodes, workload->registry(),
                                             std::move(cfg));
    for (const auto& info : harness::GridInfos(setup, *workload)) {
      svc->Advertise(info);
    }
    auto sizes = svc->DirectorySizes();
    return lorm::JainFairness(sizes);
  };
  EXPECT_GT(MakeWithCdf(true), MakeWithCdf(false));
}

}  // namespace
}  // namespace lorm::discovery
