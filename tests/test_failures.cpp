// Failure-injection, soft-state-epoch and maintenance-accounting tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "chord/chord.hpp"
#include "common/error.hpp"
#include "cycloid/cycloid.hpp"
#include "harness/failures.hpp"
#include "service_test_util.hpp"
#include "sim/latency.hpp"

namespace lorm::harness {
namespace {

using resource::RangeStyle;
using testutil::MakeBed;

// ---- Overlay-level failure behaviour ---------------------------------------

TEST(ChordFailure, RoutingSurvivesAbruptFailures) {
  chord::Config cfg;
  cfg.bits = 12;
  auto ring = chord::MakeRing(256, cfg, /*deterministic_ids=*/false);
  Rng rng(3);
  // Crash 20% without any stabilization.
  for (int i = 0; i < 51; ++i) {
    const auto members = ring.Members();
    ring.FailNode(members[rng.NextBelow(members.size())]);
  }
  const auto members = ring.Members();
  for (int i = 0; i < 300; ++i) {
    const auto key = rng.NextBelow(ring.space());
    const auto res = ring.Lookup(key, members[rng.NextBelow(members.size())]);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.owner, ring.OwnerOf(key));
  }
  EXPECT_GT(ring.maintenance().dead_links_skipped, 0u);
}

TEST(ChordFailure, ObserverSeesFailNotLeave) {
  chord::Config cfg;
  cfg.bits = 10;
  auto ring = chord::MakeRing(16, cfg, true);
  struct Obs : chord::MembershipObserver {
    void OnJoin(NodeAddr, NodeAddr) override {}
    void OnLeave(NodeAddr, NodeAddr) override { ++leaves; }
    void OnFail(NodeAddr node) override {
      ++fails;
      last = node;
    }
    int leaves = 0, fails = 0;
    NodeAddr last = kNoNode;
  } obs;
  ring.SetObserver(&obs);
  ring.FailNode(5);
  EXPECT_EQ(obs.fails, 1);
  EXPECT_EQ(obs.leaves, 0);
  EXPECT_EQ(obs.last, 5u);
  EXPECT_FALSE(ring.Contains(5));
  ring.SetObserver(nullptr);
}

TEST(CycloidFailure, RoutingHealsAfterStabilize) {
  auto net = cycloid::MakeCycloid(6 * 64, cycloid::Config{6, 1});
  Rng rng(5);
  for (int i = 0; i < 60; ++i) {
    const auto members = net.Members();
    net.FailNode(members[rng.NextBelow(members.size())]);
  }
  net.StabilizeAll();
  const auto members = net.Members();
  for (int i = 0; i < 300; ++i) {
    const cycloid::CycloidId key{static_cast<unsigned>(rng.NextBelow(6)),
                                 rng.NextBelow(64)};
    const auto res = net.Lookup(key, members[rng.NextBelow(members.size())]);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.owner, net.OwnerOf(key));
  }
}

TEST(CycloidFailure, PreRepairLookupsMayFailButNeverMisroute) {
  auto net = cycloid::MakeCycloid(6 * 64, cycloid::Config{6, 1});
  Rng rng(6);
  for (int i = 0; i < 80; ++i) {
    const auto members = net.Members();
    net.FailNode(members[rng.NextBelow(members.size())]);
  }
  const auto members = net.Members();
  int failures = 0;
  for (int i = 0; i < 300; ++i) {
    const cycloid::CycloidId key{static_cast<unsigned>(rng.NextBelow(6)),
                                 rng.NextBelow(64)};
    const auto res = net.Lookup(key, members[rng.NextBelow(members.size())]);
    if (!res.ok) {
      ++failures;  // acceptable before self-organization heals the links
      continue;
    }
    EXPECT_EQ(res.owner, net.OwnerOf(key)) << "misrouted lookup";
  }
  // Failures are possible but must be the exception, not the rule.
  EXPECT_LT(failures, 100);
}

// ---- Maintenance accounting -------------------------------------------------

/// One Chord round's bill: each of the n live nodes refreshes its `bits`
/// fingers, its successor list (min(S, n - 1) entries, or itself when
/// alone) and its predecessor.
std::uint64_t ChordRoundBill(std::size_t n, const chord::Config& cfg) {
  const std::size_t succs =
      n > 1 ? std::min(cfg.successor_list, n - 1) : std::size_t{1};
  return n * (cfg.bits + succs + 1);
}

/// Stabilization messages one StabilizeAll adds.
std::uint64_t ChordRound(chord::ChordRing& ring) {
  const std::uint64_t before = ring.maintenance().stabilize_messages;
  ring.StabilizeAll();
  return ring.maintenance().stabilize_messages - before;
}

TEST(MaintenanceAccounting, StabilizationChargesPerEntry) {
  chord::Config cfg;
  cfg.bits = 10;
  auto ring = chord::MakeRing(64, cfg, true);
  ring.ResetMaintenanceStats();
  ring.StabilizeAll();
  const auto& m = ring.maintenance();
  // Each of the 64 nodes refreshes its fingers (10), successors and pred.
  EXPECT_EQ(m.stabilize_messages, 64u * (10u + cfg.successor_list + 1u));
  EXPECT_EQ(m.join_messages, 0u);
}

// The bill is the protocol's, not the repair's: after joins, leaves and
// crashes every live node still pays a full refresh, whether the round
// repaired a few moved arcs or swept the ring.
TEST(MaintenanceAccounting, ChurnedRoundsChargeEveryLiveNode) {
  chord::Config cfg;
  cfg.bits = 12;
  auto ring = chord::MakeRing(300, cfg, /*deterministic_ids=*/false);
  Rng rng(17);
  NodeAddr next = 5000;
  for (int round = 0; round < 30; ++round) {
    const auto events = 1 + rng.NextBelow(round < 15 ? 3 : 30);
    for (std::uint64_t e = 0; e < events; ++e) {
      const auto op = rng.NextBelow(3);
      if (op == 0 || ring.size() < 100) {
        ring.AddNode(next++);
        continue;
      }
      const auto members = ring.Members();
      const NodeAddr victim = members[rng.NextBelow(members.size())];
      if (op == 1) {
        ring.RemoveNode(victim);
      } else {
        ring.FailNode(victim);
      }
    }
    EXPECT_EQ(ChordRound(ring), ChordRoundBill(ring.size(), cfg))
        << "round " << round;
    EXPECT_EQ(ChordRound(ring), ChordRoundBill(ring.size(), cfg))
        << "quiet round " << round;
  }
}

TEST(MaintenanceAccounting, SmallRingsChargeTheirShortSuccessorLists) {
  chord::Config cfg;
  cfg.bits = 8;
  cfg.successor_list = 4;
  // n <= S: each node lists the n - 1 others.
  for (std::size_t n = 2; n <= cfg.successor_list + 1; ++n) {
    auto ring = chord::MakeRing(n, cfg, /*deterministic_ids=*/false);
    EXPECT_EQ(ChordRound(ring), n * (8u + (n - 1) + 1u)) << "n = " << n;
  }
  // One member: its successor list is itself, so bits + 2.
  auto alone = chord::MakeRing(1, cfg, /*deterministic_ids=*/false);
  EXPECT_EQ(ChordRound(alone), 8u + 2u);
  // Shrunk to one member by a leave and a crash.
  auto shrunk = chord::MakeRing(3, cfg, /*deterministic_ids=*/false);
  const auto members = shrunk.Members();
  shrunk.RemoveNode(members[0]);
  shrunk.FailNode(members[1]);
  EXPECT_EQ(ChordRound(shrunk), 8u + 2u);
  EXPECT_TRUE(shrunk.LinksMatchOracle());
}

TEST(MaintenanceAccounting, CycloidConstantPerNodeRound) {
  auto net = cycloid::MakeCycloid(5 * 32, cycloid::Config{5, 1});
  net.ResetMaintenanceStats();
  net.StabilizeAll();
  EXPECT_EQ(net.maintenance().stabilize_messages, 7u * net.size());
}

TEST(MaintenanceAccounting, MercuryPaysPerHub) {
  auto lorm_bed = MakeBed(SystemKind::kLorm);
  auto mercury_bed = MakeBed(SystemKind::kMercury);
  const auto l0 = lorm_bed.service->MaintenanceMessages();
  const auto m0 = mercury_bed.service->MaintenanceMessages();
  lorm_bed.service->Maintain();
  mercury_bed.service->Maintain();
  const auto l_round = lorm_bed.service->MaintenanceMessages() - l0;
  const auto m_round = mercury_bed.service->MaintenanceMessages() - m0;
  // One Mercury round refreshes m rings; LORM refreshes 7 entries per node.
  const double ratio = static_cast<double>(m_round) /
                       static_cast<double>(l_round);
  EXPECT_GT(ratio, static_cast<double>(lorm_bed.setup.attributes));
}

// ---- Service-level failures, soft state, recovery ---------------------------

class FailurePerSystem : public ::testing::TestWithParam<SystemKind> {};

TEST_P(FailurePerSystem, LosesEntriesOnCrashButNeverFabricates) {
  auto bed = MakeBed(GetParam());
  const std::size_t before = bed.service->TotalInfoPieces();
  Rng rng(9);
  for (int i = 0; i < 40; ++i) {
    const auto live = bed.service->Nodes();
    bed.service->FailNode(live[rng.NextBelow(live.size())]);
  }
  // Entries may survive if the crashes happened to hit only empty nodes
  // (LORM concentrates load on few nodes under skew), so <=.
  EXPECT_LE(bed.service->TotalInfoPieces(), before);
  // Every provider a query returns must actually match (no fabrication):
  bed.service->Maintain();
  for (int i = 0; i < 20; ++i) {
    const auto live = bed.service->Nodes();
    const auto q = bed.workload->MakeRangeQuery(
        2, live[rng.NextBelow(live.size())], RangeStyle::kBounded, rng);
    const auto res = bed.service->Query(q);
    const auto truth = BruteForceProviders(bed.infos, q, *bed.service);
    for (const NodeAddr p : res.providers) {
      EXPECT_TRUE(std::binary_search(truth.begin(), truth.end(), p))
          << bed.service->name() << " fabricated provider";
    }
  }
}

TEST_P(FailurePerSystem, RecoveryRestoresFullRecall) {
  auto bed = MakeBed(GetParam());
  FailureConfig cfg;
  cfg.fail_fraction = 0.15;
  cfg.queries = 40;
  cfg.attrs_per_query = 2;
  const auto result =
      RunFailureExperiment(*bed.service, *bed.workload, bed.infos, cfg);
  EXPECT_GT(result.failed_nodes, 0u);
  EXPECT_GT(result.lost_entries, 0u);
  EXPECT_EQ(result.recovered.routing_failures, 0u);
  EXPECT_DOUBLE_EQ(result.recovered.recall, 1.0)
      << bed.service->name() << " did not recover";
  EXPECT_LE(result.degraded.recall, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Systems, FailurePerSystem,
    ::testing::Values(SystemKind::kLorm, SystemKind::kMercury,
                      SystemKind::kSword, SystemKind::kMaan),
    [](const auto& info) { return std::string(SystemName(info.param)); });

// Joins and a leave land next to crashed predecessors that no Maintain has
// repaired yet. Before the Maintain, queries may fail but must not throw or
// fabricate; after it, none may fail.
TEST(FailureChurn, MembershipChangesNextToUnrepairedCrashes) {
  for (const SystemKind kind : RegisteredSystems()) {
    SCOPED_TRACE(SystemName(kind));
    auto bed = MakeBed(kind, Setup::Quick());
    auto& svc = *bed.service;
    for (NodeAddr addr = 0; addr <= 273; addr += 7) svc.FailNode(addr);
    svc.LeaveNode(1);
    Rng rng(21);
    for (NodeAddr addr = 384; addr < 394; ++addr) {
      ASSERT_TRUE(svc.JoinNode(addr));
      const auto attr =
          static_cast<AttrId>(rng.NextBelow(bed.setup.attributes));
      const resource::ResourceInfo info{
          attr, bed.workload->SampleValue(attr, rng), addr};
      // Every system returns normally. A LORM route through the unrepaired
      // Cycloid can fail and then stores nothing, so the tuple joins the
      // ground truth only when something was stored.
      const std::size_t stored = svc.TotalInfoPieces();
      svc.Advertise(info);
      if (svc.TotalInfoPieces() > stored) bed.infos.push_back(info);
    }
    for (const bool maintained : {false, true}) {
      if (maintained) svc.Maintain();
      const auto live = svc.Nodes();
      for (int i = 0; i < 300; ++i) {
        const auto q = bed.workload->MakeRangeQuery(
            2, live[rng.NextBelow(live.size())], RangeStyle::kBounded, rng);
        const auto res = svc.Query(q);
        const auto truth = BruteForceProviders(bed.infos, q, svc);
        for (const NodeAddr p : res.providers) {
          ASSERT_TRUE(std::binary_search(truth.begin(), truth.end(), p))
              << "fabricated provider " << p;
        }
        if (maintained) {
          ASSERT_FALSE(res.stats.failed) << "query " << i;
        }
      }
    }
  }
}

TEST(FailureEdgeCases, ZeroFractionCrashesNobody) {
  auto bed = MakeBed(SystemKind::kLorm,
                     Setup::Small().WithNodes(64));
  FailureConfig cfg;
  cfg.fail_fraction = 0.0;
  cfg.queries = 10;
  const std::size_t before = bed.service->TotalInfoPieces();
  const auto result =
      RunFailureExperiment(*bed.service, *bed.workload, bed.infos, cfg);
  EXPECT_EQ(result.failed_nodes, 0u);
  EXPECT_EQ(result.lost_entries, 0u);
  EXPECT_EQ(bed.service->TotalInfoPieces(), before);
  EXPECT_EQ(result.degraded.routing_failures, 0u);
  EXPECT_DOUBLE_EQ(result.degraded.recall, 1.0);
  EXPECT_DOUBLE_EQ(result.recovered.recall, 1.0);
}

TEST(FailureEdgeCases, FullFractionLeavesOneSurvivor) {
  // fail_fraction = 1.0 used to crash every node, leaving MeasurePhase with
  // no requester to pick and a 0/0 recall. The clamp keeps one survivor.
  auto bed = MakeBed(SystemKind::kSword,
                     Setup::Small().WithNodes(64));
  FailureConfig cfg;
  cfg.fail_fraction = 1.0;
  cfg.queries = 10;
  const auto result =
      RunFailureExperiment(*bed.service, *bed.workload, bed.infos, cfg);
  EXPECT_EQ(result.failed_nodes, 63u);
  EXPECT_EQ(bed.service->Nodes().size(), 1u);
  for (const auto* phase :
       {&result.degraded, &result.repaired, &result.recovered}) {
    EXPECT_FALSE(std::isnan(phase->recall));
    EXPECT_GE(phase->recall, 0.0);
    EXPECT_LE(phase->recall, 1.0);
  }
  // The lone survivor re-advertises what it still provides; against ground
  // truth restricted to live providers that is full recall again.
  EXPECT_EQ(result.recovered.routing_failures, 0u);
  EXPECT_DOUBLE_EQ(result.recovered.recall, 1.0);
}

TEST(FailureEdgeCases, OutOfRangeFractionIsRejected) {
  auto bed = MakeBed(SystemKind::kLorm, Setup::Small().WithNodes(64));
  FailureConfig cfg;
  cfg.fail_fraction = 1.5;
  EXPECT_THROW(
      RunFailureExperiment(*bed.service, *bed.workload, bed.infos, cfg),
      InvariantError);
}

TEST(SoftState, EpochExpiryDropsOldEntries) {
  auto bed = MakeBed(SystemKind::kSword);
  const std::size_t original = bed.service->TotalInfoPieces();
  EXPECT_EQ(bed.service->CurrentEpoch(), 0u);
  bed.service->SetEpoch(1);
  // Re-advertise only the first half of the tuples in epoch 1.
  for (std::size_t i = 0; i < bed.infos.size() / 2; ++i) {
    bed.service->Advertise(bed.infos[i]);
  }
  EXPECT_EQ(bed.service->TotalInfoPieces(), original + bed.infos.size() / 2);
  // Expiring epoch 0 leaves exactly the re-advertised half.
  const std::size_t dropped = bed.service->ExpireEntriesBefore(1);
  EXPECT_EQ(dropped, original);
  EXPECT_EQ(bed.service->TotalInfoPieces(), bed.infos.size() / 2);
}

TEST(SoftState, MaanExpiresBothRecordKinds) {
  auto bed = MakeBed(SystemKind::kMaan);
  EXPECT_EQ(bed.service->TotalInfoPieces(), 2 * bed.infos.size());
  bed.service->SetEpoch(5);
  bed.service->Advertise(bed.infos.front());
  EXPECT_EQ(bed.service->ExpireEntriesBefore(5), 2 * bed.infos.size());
  EXPECT_EQ(bed.service->TotalInfoPieces(), 2u);  // both fresh records remain
}

// ---- Latency estimation -----------------------------------------------------

TEST(LatencyEstimate, SubCostsArePerSubQuery) {
  auto bed = MakeBed(SystemKind::kLorm);
  Rng rng(4);
  const auto q = bed.workload->MakeRangeQuery(3, 0, RangeStyle::kBounded, rng);
  const auto res = bed.service->Query(q);
  ASSERT_EQ(res.stats.sub_costs.size(), 3u);
  HopCount total = 0;
  for (const auto c : res.stats.sub_costs) total += c;
  EXPECT_EQ(total, res.stats.dht_hops +
                       static_cast<HopCount>(res.stats.walk_steps));
}

TEST(LatencyEstimate, ParallelMaxUnderFixedModel) {
  discovery::QueryStats stats;
  stats.sub_costs = {4, 9, 2};
  const sim::FixedLatency model(0.01);
  Rng rng(1);
  // Slowest sub: 9 hops + 1 reply = 10 x 10 ms.
  EXPECT_NEAR(EstimateQueryLatency(stats, model, rng), 0.10, 1e-12);
  discovery::QueryStats empty;
  EXPECT_DOUBLE_EQ(EstimateQueryLatency(empty, model, rng), 0.0);
}

TEST(LatencyEstimate, MeasurementOrdersSystemsForRangeQueries) {
  auto lorm_bed = MakeBed(SystemKind::kLorm);
  auto maan_bed = MakeBed(SystemKind::kMaan);
  const sim::FixedLatency model(0.01);
  QueryExperimentConfig cfg;
  cfg.requesters = 20;
  cfg.queries_per_requester = 5;
  cfg.attrs_per_query = 2;
  cfg.range = true;
  const auto lorm_lat =
      MeasureQueryLatency(*lorm_bed.service, *lorm_bed.workload, cfg, model);
  const auto maan_lat =
      MeasureQueryLatency(*maan_bed.service, *maan_bed.workload, cfg, model);
  EXPECT_EQ(lorm_lat.queries, 100u);
  // MAAN's system-wide value walk serializes ~n/4 forwards per sub-query.
  EXPECT_GT(maan_lat.mean, 3.0 * lorm_lat.mean);
}

}  // namespace
}  // namespace lorm::harness
