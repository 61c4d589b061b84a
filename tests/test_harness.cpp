// Harness tests: setup factory, experiment runners, table printing.
#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "harness/churn.hpp"
#include "harness/experiments.hpp"
#include "harness/setup.hpp"
#include "harness/table.hpp"
#include "service_test_util.hpp"
#include "sim/latency.hpp"

namespace lorm::harness {
namespace {

TEST(SetupTest, PaperMatchesSectionV) {
  const harness::Setup s = harness::Setup::Paper();
  EXPECT_EQ(s.nodes, 2048u);
  EXPECT_EQ(s.dimension, 8u);
  EXPECT_EQ(s.chord_bits, 11u);
  EXPECT_EQ(s.attributes, 200u);
  EXPECT_EQ(s.infos_per_attribute, 500u);
}

TEST(SetupTest, WithNodesDerivesConsistentParameters) {
  const harness::Setup s = harness::Setup::Paper().WithNodes(256);
  EXPECT_EQ(s.nodes, 256u);
  EXPECT_EQ(s.chord_bits, 8u);
  EXPECT_GE(static_cast<std::uint64_t>(s.dimension) << s.dimension,
            256u / s.dimension);
  const harness::Setup big = harness::Setup::Paper().WithNodes(4096);
  EXPECT_EQ(big.chord_bits, 12u);
  EXPECT_EQ(big.dimension, 9u);  // 9 * 512 = 4608 >= 4096
}

TEST(SetupTest, FactoryBuildsEverySystem) {
  const harness::Setup s = harness::Setup::Small();
  resource::Workload w(s.MakeWorkloadConfig());
  for (SystemKind kind : AllSystems()) {
    auto svc = MakeService(kind, s, w.registry());
    ASSERT_NE(svc, nullptr);
    EXPECT_EQ(svc->NetworkSize(), s.nodes);
    EXPECT_EQ(svc->name(), SystemName(kind));
    EXPECT_TRUE(svc->HasNode(0));
    EXPECT_FALSE(svc->HasNode(static_cast<NodeAddr>(s.nodes)));
  }
}

// The executor checks the requester once, before any sub-query runs, so
// every system rejects a non-member requester — with or without
// sub-queries — and a non-member provider's advertisement.
TEST(ServiceGuards, EverySystemRejectsNonMemberRequesterAndProvider) {
  for (const SystemKind kind : RegisteredSystems()) {
    SCOPED_TRACE(SystemName(kind));
    auto bed = testutil::MakeBed(kind);
    resource::MultiQuery q;
    q.requester = 999999;
    EXPECT_THROW(bed.service->Query(q), InvariantError);
    q.subs.push_back(
        {0, resource::ValueRange::Point(resource::AttrValue::Number(5))});
    EXPECT_THROW(bed.service->Query(q), InvariantError);
    const resource::ResourceInfo info{0, resource::AttrValue::Number(5),
                                      999999};
    EXPECT_THROW(bed.service->Advertise(info), InvariantError);
  }
}

TEST(ExperimentTest, DirectoryMeasurementConsistent) {
  auto bed = testutil::MakeBed(SystemKind::kLorm);
  const auto m = MeasureDirectories(*bed.service);
  EXPECT_EQ(m.total_pieces, bed.infos.size());
  EXPECT_EQ(m.per_node.count, bed.setup.nodes);
  EXPECT_NEAR(m.per_node.total, static_cast<double>(bed.infos.size()), 1e-6);
  EXPECT_GT(m.fairness, 0.0);
  EXPECT_LE(m.fairness, 1.0);
}

TEST(ExperimentTest, RunQueriesAggregates) {
  auto bed = testutil::MakeBed(SystemKind::kSword);
  QueryExperimentConfig cfg;
  cfg.requesters = 20;
  cfg.queries_per_requester = 5;
  cfg.attrs_per_query = 3;
  cfg.range = true;
  const auto r = RunQueries(*bed.service, *bed.workload, cfg);
  EXPECT_EQ(r.queries, 100u);
  EXPECT_EQ(r.failures, 0u);
  EXPECT_DOUBLE_EQ(r.avg_hops * 100.0, r.total_hops);
  // SWORD: exactly attrs_per_query visited nodes per range query.
  EXPECT_DOUBLE_EQ(r.avg_visited, 3.0);
  EXPECT_DOUBLE_EQ(r.avg_lookups, 3.0);
}

TEST(ExperimentTest, DeterministicAcrossRuns) {
  auto bed = testutil::MakeBed(SystemKind::kLorm);
  QueryExperimentConfig cfg;
  cfg.requesters = 10;
  cfg.queries_per_requester = 3;
  cfg.attrs_per_query = 2;
  const auto a = RunQueries(*bed.service, *bed.workload, cfg);
  const auto b = RunQueries(*bed.service, *bed.workload, cfg);
  EXPECT_DOUBLE_EQ(a.total_hops, b.total_hops);
  EXPECT_DOUBLE_EQ(a.total_visited, b.total_visited);
}

TEST(TableTest, AlignsAndFormats) {
  std::ostringstream os;
  TablePrinter t(os, {"n", "LORM", "Mercury"}, 8);
  t.PrintHeader();
  t.Row({"2048", TablePrinter::Num(7.0, 1), TablePrinter::Int(2200)});
  const std::string out = os.str();
  EXPECT_NE(out.find("LORM"), std::string::npos);
  EXPECT_NE(out.find("7.0"), std::string::npos);
  EXPECT_NE(out.find("2200"), std::string::npos);
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Int(12.7), "13");
}

TEST(TableTest, CsvModeEmitsCommaRows) {
  TablePrinter::SetCsvMode(true);
  std::ostringstream os;
  TablePrinter t(os, {"a", "b"}, 8);
  t.PrintHeader();
  t.Row({"1", "2.5"});
  TablePrinter::SetCsvMode(false);
  EXPECT_EQ(os.str(), "a,b\n1,2.5\n");
}

TEST(ChurnTest, FullOverlayRejectsJoinsUntilDepartures) {
  // Small() is a fully populated Cycloid: early join attempts bounce.
  auto bed = testutil::MakeBed(SystemKind::kLorm);
  ChurnConfig cfg;
  cfg.rate = 2.0;  // aggressive churn so both kinds of events occur
  cfg.total_queries = 40;
  cfg.query_rate = 4.0;
  cfg.attrs_per_query = 1;
  const auto result = RunChurn(*bed.service, *bed.workload,
                               static_cast<NodeAddr>(bed.setup.nodes) + 1,
                               cfg);
  EXPECT_GT(result.rejected_joins + result.joins, 0u);
  EXPECT_LE(bed.service->NetworkSize(), bed.setup.nodes);
  EXPECT_EQ(result.failures, 0u);
}

TEST(LatencyTest, DeterministicGivenSeeds) {
  auto bed = testutil::MakeBed(SystemKind::kSword);
  const sim::FixedLatency model(0.01);
  QueryExperimentConfig cfg;
  cfg.requesters = 10;
  cfg.queries_per_requester = 5;
  cfg.attrs_per_query = 2;
  const auto a = MeasureQueryLatency(*bed.service, *bed.workload, cfg, model);
  const auto b = MeasureQueryLatency(*bed.service, *bed.workload, cfg, model);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_DOUBLE_EQ(a.p99, b.p99);
  EXPECT_GT(a.mean, 0.0);
  EXPECT_GE(a.p99, a.p50);
}

TEST(MaintenanceTest, ServicesReportMonotoneCounters) {
  auto bed = testutil::MakeBed(SystemKind::kMaan);
  const auto before = bed.service->MaintenanceMessages();
  bed.service->JoinNode(99990);
  const auto after_join = bed.service->MaintenanceMessages();
  EXPECT_GT(after_join, before);
  bed.service->LeaveNode(99990);
  EXPECT_GT(bed.service->MaintenanceMessages(), after_join);
}

TEST(FactoryTest, ReplicatedSetupBuilds) {
  auto setup = harness::Setup::Small();
  setup.replicas = 2;
  resource::Workload w(setup.MakeWorkloadConfig());
  for (SystemKind kind : AllSystems()) {
    auto svc = MakeService(kind, setup, w.registry());
    resource::ResourceInfo info{0, resource::AttrValue::Number(600.0), 1};
    svc->Advertise(info);
    const std::size_t per_tuple =
        (kind == SystemKind::kMaan || kind == SystemKind::kD1ht) ? 2 : 1;
    EXPECT_EQ(svc->TotalInfoPieces(), 2 * per_tuple) << SystemName(kind);
  }
}

TEST(QueryLoadTest, CountsMatchVisitedNodes) {
  auto bed = testutil::MakeBed(SystemKind::kLorm);
  bed.service->ResetQueryLoad();
  QueryExperimentConfig cfg;
  cfg.requesters = 20;
  cfg.queries_per_requester = 5;
  cfg.attrs_per_query = 2;
  cfg.range = true;
  const auto r = RunQueries(*bed.service, *bed.workload, cfg);
  const auto loads = bed.service->QueryLoadCounts();
  EXPECT_EQ(loads.size(), bed.service->NetworkSize());
  double total = 0;
  for (double l : loads) total += l;
  EXPECT_DOUBLE_EQ(total, r.total_visited);
  bed.service->ResetQueryLoad();
  double after = 0;
  for (double l : bed.service->QueryLoadCounts()) after += l;
  EXPECT_DOUBLE_EQ(after, 0.0);
}

TEST(QueryLoadTest, SwordConcentratesOnAttributeRoots) {
  auto bed = testutil::MakeBed(SystemKind::kSword);
  bed.service->ResetQueryLoad();
  QueryExperimentConfig cfg;
  cfg.requesters = 30;
  cfg.queries_per_requester = 10;
  cfg.attrs_per_query = 1;
  cfg.range = true;
  RunQueries(*bed.service, *bed.workload, cfg);
  const auto loads = bed.service->QueryLoadCounts();
  std::size_t busy = 0;
  for (double l : loads) busy += l > 0 ? 1 : 0;
  // At most one busy node per attribute (piles may share roots on collision).
  EXPECT_LE(busy, bed.setup.attributes);
}

}  // namespace
}  // namespace lorm::harness
