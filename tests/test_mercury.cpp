// Mercury service tests: per-attribute hubs, value-spread placement,
// completeness, churn re-homing, and the m-fold routing state.
#include "discovery/mercury_service.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "service_test_util.hpp"

namespace lorm::discovery {
namespace {

using harness::SystemKind;
using resource::AttrValue;
using resource::MultiQuery;
using resource::RangeStyle;
using harness::BruteForceProviders;
using testutil::MakeBed;

MercuryService* AsMercury(DiscoveryService* s) {
  return dynamic_cast<MercuryService*>(s);
}

TEST(MercuryStructure, OneHubPerAttributeWithAllNodes) {
  auto bed = MakeBed(SystemKind::kMercury);
  auto* mercury = AsMercury(bed.service.get());
  ASSERT_NE(mercury, nullptr);
  for (AttrId a = 0; a < bed.workload->registry().size(); ++a) {
    EXPECT_EQ(mercury->hub(a).size(), bed.setup.nodes);
  }
}

TEST(MercuryStructure, OutlinksScaleWithAttributeCount) {
  // Theorem 4.1's premise: each node pays O(log n) per hub, m hubs.
  auto bed = MakeBed(SystemKind::kMercury);
  const auto links = bed.service->OutlinkCounts();
  const double m = static_cast<double>(bed.setup.attributes);
  const double log_n = std::log2(static_cast<double>(bed.setup.nodes));
  for (double l : links) {
    EXPECT_GT(l, m * log_n * 0.5);
    EXPECT_LT(l, m * (log_n + 8));
  }
}

TEST(MercuryStructure, KeysPreserveValueOrderPerHub) {
  auto bed = MakeBed(SystemKind::kMercury);
  auto* mercury = AsMercury(bed.service.get());
  for (AttrId a : {AttrId{0}, AttrId{5}}) {
    std::uint64_t prev = 0;
    for (double v = 1.0; v <= 1000.0; v += 21.3) {
      const auto key = mercury->KeyFor(a, AttrValue::Number(v));
      EXPECT_GE(key, prev);
      prev = key;
    }
  }
}

class MercuryCompleteness
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(MercuryCompleteness, MatchesBruteForce) {
  const auto [attrs, range] = GetParam();
  auto bed = MakeBed(SystemKind::kMercury);
  Rng rng(42 + attrs);
  for (int i = 0; i < 15; ++i) {
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

INSTANTIATE_TEST_SUITE_P(Shapes, MercuryCompleteness,
                         ::testing::Combine(::testing::Values(1, 3),
                                            ::testing::Bool()));

TEST(MercuryQuery, PointQueryCostsOneLookupPerAttribute) {
  auto bed = MakeBed(SystemKind::kMercury);
  Rng rng(1);
  const auto q = bed.workload->MakePointQuery(4, 0, rng);
  const auto res = bed.service->Query(q);
  EXPECT_EQ(res.stats.lookups, 4u);
  EXPECT_EQ(res.stats.visited_nodes, 4u);
}

TEST(MercuryQuery, RangeWalkIsSystemWide) {
  // A full-span range visits every node of the hub's ring (Theorem 4.10's
  // worst case): visited = 1 root + (n-1) walked.
  auto bed = MakeBed(SystemKind::kMercury);
  Rng rng(2);
  const auto q = bed.workload->MakeRangeQuery(1, 0, RangeStyle::kFullSpan, rng);
  const auto res = bed.service->Query(q);
  EXPECT_EQ(res.stats.visited_nodes, bed.setup.nodes);
  // ...and recovers every tuple of that attribute.
  EXPECT_EQ(res.per_sub[0].size(), bed.setup.infos_per_attribute);
}

TEST(MercuryChurn, RehomesAcrossAllHubs) {
  auto bed = MakeBed(SystemKind::kMercury);
  Rng rng(3);
  NodeAddr next = static_cast<NodeAddr>(bed.setup.nodes) + 1000;
  for (int round = 0; round < 12; ++round) {
    if (rng.NextBool() && bed.service->NetworkSize() > 32) {
      const auto nodes = bed.service->Nodes();
      bed.service->LeaveNode(nodes[rng.NextBelow(nodes.size())]);
    } else {
      bed.service->JoinNode(next++);
    }
  }
  for (int i = 0; i < 15; ++i) {
    const auto nodes = bed.service->Nodes();
    const NodeAddr req = nodes[rng.NextBelow(nodes.size())];
    const auto q =
        bed.workload->MakeRangeQuery(2, req, RangeStyle::kBounded, rng);
    const auto res = bed.service->Query(q);
    EXPECT_FALSE(res.stats.failed);
    EXPECT_EQ(res.providers, BruteForceProviders(bed.infos, q, *bed.service));
  }
  EXPECT_EQ(bed.service->TotalInfoPieces(), bed.infos.size());
}

TEST(MercuryMetrics, BalancedDirectories) {
  auto bed = MakeBed(SystemKind::kMercury);
  EXPECT_EQ(bed.service->TotalInfoPieces(), bed.infos.size());
  const auto sizes = bed.service->DirectorySizes();
  double total = 0;
  for (double s : sizes) total += s;
  EXPECT_DOUBLE_EQ(total, static_cast<double>(bed.infos.size()));
}

}  // namespace
}  // namespace lorm::discovery
