// SWORD service tests: attribute-rooted centralized directories, local range
// resolution, completeness, and churn re-homing.
#include "discovery/sword_service.hpp"

#include <gtest/gtest.h>

#include <set>

#include "service_test_util.hpp"

namespace lorm::discovery {
namespace {

using harness::SystemKind;
using resource::AttrValue;
using resource::MultiQuery;
using resource::RangeStyle;
using harness::BruteForceProviders;
using testutil::MakeBed;

SwordService* AsSword(DiscoveryService* s) {
  return dynamic_cast<SwordService*>(s);
}

TEST(SwordStructure, AllInfoOfOneAttributeOnOneNode) {
  auto bed = MakeBed(SystemKind::kSword);
  auto* sword = AsSword(bed.service.get());
  ASSERT_NE(sword, nullptr);
  // The directory node of attribute a holds all k pieces: querying the full
  // span visits exactly one node and returns everything.
  for (AttrId a = 0; a < 5; ++a) {
    MultiQuery q;
    q.requester = 0;
    q.subs.push_back(
        {a, resource::ValueRange::Between(
                AttrValue::Number(bed.setup.value_min),
                AttrValue::Number(bed.setup.value_max))});
    const auto res = bed.service->Query(q);
    EXPECT_EQ(res.stats.visited_nodes, 1u);
    EXPECT_EQ(res.per_sub[0].size(), bed.setup.infos_per_attribute);
  }
}

TEST(SwordStructure, DirectoryConcentration) {
  auto bed = MakeBed(SystemKind::kSword);
  // At most `attributes` nodes hold anything at all.
  const auto sizes = bed.service->DirectorySizes();
  std::size_t nonzero = 0;
  for (double s : sizes) nonzero += s > 0 ? 1 : 0;
  EXPECT_LE(nonzero, bed.setup.attributes);
  EXPECT_GT(nonzero, 0u);
}

class SwordCompleteness
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(SwordCompleteness, MatchesBruteForce) {
  const auto [attrs, range] = GetParam();
  auto bed = MakeBed(SystemKind::kSword);
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

INSTANTIATE_TEST_SUITE_P(Shapes, SwordCompleteness,
                         ::testing::Combine(::testing::Values(1, 3, 5),
                                            ::testing::Bool()));

TEST(SwordQuery, RangeQueryVisitsExactlyOneNodePerAttribute) {
  auto bed = MakeBed(SystemKind::kSword);
  Rng rng(1);
  const auto q = bed.workload->MakeRangeQuery(6, 0, RangeStyle::kBounded, rng);
  const auto res = bed.service->Query(q);
  EXPECT_EQ(res.stats.lookups, 6u);
  EXPECT_EQ(res.stats.visited_nodes, 6u);  // Theorem 4.9: m visited nodes
  EXPECT_EQ(res.stats.walk_steps, 0u);
}

TEST(SwordChurn, AttributePilesFollowOwnership) {
  auto bed = MakeBed(SystemKind::kSword);
  auto* sword = AsSword(bed.service.get());
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
  EXPECT_EQ(bed.service->TotalInfoPieces(), bed.infos.size());
  // Every attribute pile sits on the current owner of its key.
  const auto& ring = sword->overlay();
  for (AttrId a = 0; a < bed.workload->registry().size(); ++a) {
    MultiQuery q;
    q.requester = ring.Members().front();
    q.subs.push_back(
        {a, resource::ValueRange::Between(
                AttrValue::Number(bed.setup.value_min),
                AttrValue::Number(bed.setup.value_max))});
    const auto res = bed.service->Query(q);
    EXPECT_EQ(res.per_sub[0].size(), bed.setup.infos_per_attribute);
  }
}

TEST(SwordChurn, QueriesMatchBruteForceAfterChurn) {
  auto bed = MakeBed(SystemKind::kSword);
  Rng rng(4);
  NodeAddr next = 90000;
  for (int round = 0; round < 20; ++round) {
    if (round % 2) {
      const auto nodes = bed.service->Nodes();
      bed.service->LeaveNode(nodes[rng.NextBelow(nodes.size())]);
    } else {
      bed.service->JoinNode(next++);
    }
  }
  for (int i = 0; i < 20; ++i) {
    const auto nodes = bed.service->Nodes();
    const auto q = bed.workload->MakeRangeQuery(
        2, nodes[rng.NextBelow(nodes.size())], RangeStyle::kBounded, rng);
    const auto res = bed.service->Query(q);
    EXPECT_FALSE(res.stats.failed);
    EXPECT_EQ(res.providers, BruteForceProviders(bed.infos, q, *bed.service));
  }
}

}  // namespace
}  // namespace lorm::discovery
