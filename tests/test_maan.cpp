// MAAN service tests: dual placement, doubled storage (Theorem 4.2),
// two-lookup queries, system-wide range walks, completeness and churn.
#include "discovery/maan_service.hpp"

#include <gtest/gtest.h>

#include "service_test_util.hpp"

namespace lorm::discovery {
namespace {

using harness::SystemKind;
using resource::AttrValue;
using resource::MultiQuery;
using resource::RangeStyle;
using harness::BruteForceProviders;
using testutil::MakeBed;

TEST(MaanStructure, StoresEveryTupleTwice) {
  auto bed = MakeBed(SystemKind::kMaan);
  // Theorem 4.2: total pieces = 2x the advertised tuples.
  EXPECT_EQ(bed.service->TotalInfoPieces(), 2 * bed.infos.size());
}

TEST(MaanStructure, AttributeAndValueKeysDiffer) {
  auto bed = MakeBed(SystemKind::kMaan);
  auto* maan = dynamic_cast<MaanService*>(bed.service.get());
  ASSERT_NE(maan, nullptr);
  // Value keys are order-preserving; attribute keys are not value-dependent.
  EXPECT_EQ(maan->AttributeKeyFor(0), maan->AttributeKeyFor(0));
  EXPECT_LE(maan->ValueKeyFor(0, AttrValue::Number(10)),
            maan->ValueKeyFor(0, AttrValue::Number(500)));
}

TEST(MaanQuery, PointQueryCostsTwoLookupsPerAttribute) {
  auto bed = MakeBed(SystemKind::kMaan);
  Rng rng(1);
  const auto q = bed.workload->MakePointQuery(3, 0, rng);
  const auto res = bed.service->Query(q);
  EXPECT_EQ(res.stats.lookups, 6u);        // Theorem 4.7/4.8 premise
  EXPECT_EQ(res.stats.visited_nodes, 6u);  // attribute root + value root
}

TEST(MaanQuery, RangeWalkIsSystemWide) {
  auto bed = MakeBed(SystemKind::kMaan);
  Rng rng(2);
  const auto q = bed.workload->MakeRangeQuery(1, 0, RangeStyle::kFullSpan, rng);
  const auto res = bed.service->Query(q);
  // 1 attribute root + full ring walk.
  EXPECT_EQ(res.stats.visited_nodes, bed.setup.nodes + 1);
  EXPECT_EQ(res.per_sub[0].size(), bed.setup.infos_per_attribute);
}

class MaanCompleteness
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(MaanCompleteness, MatchesBruteForce) {
  const auto [attrs, range] = GetParam();
  auto bed = MakeBed(SystemKind::kMaan);
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

INSTANTIATE_TEST_SUITE_P(Shapes, MaanCompleteness,
                         ::testing::Combine(::testing::Values(1, 3),
                                            ::testing::Bool()));

TEST(MaanQuery, NoDuplicateMatchesFromAttributeRecords) {
  // A range walk that passes through an attribute root must not double-count
  // the attribute records piled there.
  auto bed = MakeBed(SystemKind::kMaan);
  MultiQuery q;
  q.requester = 0;
  q.subs.push_back({0, resource::ValueRange::Between(
                           AttrValue::Number(bed.setup.value_min),
                           AttrValue::Number(bed.setup.value_max))});
  const auto res = bed.service->Query(q);
  // Full span of one attribute: exactly k matches (each tuple once).
  EXPECT_EQ(res.per_sub[0].size(), bed.setup.infos_per_attribute);
}

TEST(MaanChurn, DualRecordsRehomeIndependently) {
  auto bed = MakeBed(SystemKind::kMaan);
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
  EXPECT_EQ(bed.service->TotalInfoPieces(), 2 * bed.infos.size());
  for (int i = 0; i < 20; ++i) {
    const auto nodes = bed.service->Nodes();
    const auto q = bed.workload->MakeRangeQuery(
        2, nodes[rng.NextBelow(nodes.size())], RangeStyle::kBounded, rng);
    const auto res = bed.service->Query(q);
    EXPECT_FALSE(res.stats.failed);
    EXPECT_EQ(res.providers, BruteForceProviders(bed.infos, q, *bed.service));
  }
}

TEST(MaanMetrics, DirectoryTotalsIncludeBothRecordKinds) {
  auto bed = MakeBed(SystemKind::kMaan);
  const auto sizes = bed.service->DirectorySizes();
  double total = 0;
  for (double s : sizes) total += s;
  EXPECT_DOUBLE_EQ(total, 2.0 * static_cast<double>(bed.infos.size()));
}

}  // namespace
}  // namespace lorm::discovery
