// Cross-system integration tests: the four discovery systems, driven by one
// workload, must return identical answers — and their costs must order as
// §IV predicts (MAAN ~2x lookups, SWORD minimal visited nodes, LORM
// cluster-bounded walks, Mercury/MAAN system-wide walks).
#include <gtest/gtest.h>

#include <memory>

#include "common/stats.hpp"
#include "service_test_util.hpp"

namespace lorm::discovery {
namespace {

using harness::AllSystems;
using harness::Setup;
using harness::SystemKind;
using resource::MultiQuery;
using resource::RangeStyle;
using harness::BruteForceProviders;

struct AllBeds {
  Setup setup = Setup::Small();
  std::unique_ptr<resource::Workload> workload;
  std::vector<std::unique_ptr<DiscoveryService>> services;
  std::vector<resource::ResourceInfo> infos;
};

AllBeds MakeAll() {
  AllBeds beds;
  // The cost/balance theorems assume near-uniform values; use the paper's
  // mild skew here (the harsh-skew regime is covered by the lph ablation).
  beds.setup.pareto_shape = 1.0;
  beds.setup.value_min = 500.0;
  beds.setup.value_max = 1000.0;
  beds.workload =
      std::make_unique<resource::Workload>(beds.setup.MakeWorkloadConfig());
  beds.infos = harness::GridInfos(beds.setup, *beds.workload);
  for (SystemKind kind : AllSystems()) {
    beds.services.push_back(
        harness::MakeService(kind, beds.setup, beds.workload->registry()));
    harness::AdvertiseAll(*beds.services.back(), beds.infos);
  }
  return beds;
}

class ConsistencyAcrossSystems
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(ConsistencyAcrossSystems, IdenticalProviderSets) {
  const auto [attrs, range] = GetParam();
  auto beds = MakeAll();
  Rng rng(77 + attrs + (range ? 1 : 0));
  for (int i = 0; i < 10; ++i) {
    const NodeAddr req =
        static_cast<NodeAddr>(rng.NextBelow(beds.setup.nodes));
    const MultiQuery q =
        range ? beds.workload->MakeRangeQuery(attrs, req, RangeStyle::kBounded,
                                              rng)
              : beds.workload->MakePointQuery(attrs, req, rng);
    const auto expected =
        BruteForceProviders(beds.infos, q, *beds.services.front());
    for (const auto& svc : beds.services) {
      const auto res = svc->Query(q);
      EXPECT_FALSE(res.stats.failed) << svc->name();
      EXPECT_EQ(res.providers, expected)
          << svc->name() << " diverges on " << q.ToString(beds.workload->registry());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ConsistencyAcrossSystems,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Bool()));

TEST(CostOrdering, MaanPaysTwoLookupsOthersOne) {
  auto beds = MakeAll();
  Rng rng(5);
  const auto q = beds.workload->MakePointQuery(5, 0, rng);
  for (const auto& svc : beds.services) {
    const auto res = svc->Query(q);
    // MAAN and D1HT share the dual attribute/value placement: two lookups
    // per attribute, whatever the substrate.
    const std::size_t expected =
        (svc->name() == "MAAN" || svc->name() == "D1HT") ? 10u : 5u;
    EXPECT_EQ(res.stats.lookups, expected) << svc->name();
  }
}

TEST(CostOrdering, RangeVisitedNodesFollowTheorem49) {
  auto beds = MakeAll();
  Rng rng(6);
  double visited[5] = {};  // LORM, Mercury, SWORD, MAAN, D1HT
  const int kQueries = 30;
  for (int i = 0; i < kQueries; ++i) {
    const NodeAddr req =
        static_cast<NodeAddr>(rng.NextBelow(beds.setup.nodes));
    const auto q =
        beds.workload->MakeRangeQuery(2, req, RangeStyle::kBounded, rng);
    for (std::size_t s = 0; s < beds.services.size(); ++s) {
      visited[s] += static_cast<double>(
          beds.services[s]->Query(q).stats.visited_nodes);
    }
  }
  const double lorm = visited[0], mercury = visited[1], sword = visited[2],
               maan = visited[3], d1ht = visited[4];
  // D1HT walks the same system-wide value arcs as MAAN.
  EXPECT_DOUBLE_EQ(d1ht, maan);
  // SWORD visits exactly m nodes per query.
  EXPECT_DOUBLE_EQ(sword, 2.0 * kQueries);
  // LORM visits at most 1 + cluster size per attribute; far below the
  // system-wide walkers.
  EXPECT_LT(lorm, mercury / 5.0);
  EXPECT_LT(lorm, maan / 5.0);
  // MAAN pays one extra root visit per attribute over Mercury.
  EXPECT_GT(maan, mercury);
  EXPECT_GT(lorm, sword);
}

TEST(CostOrdering, NonRangeHopsOrderAsFigure4) {
  auto beds = MakeAll();
  Rng rng(7);
  double hops[5] = {};
  for (int i = 0; i < 60; ++i) {
    const NodeAddr req =
        static_cast<NodeAddr>(rng.NextBelow(beds.setup.nodes));
    const auto q = beds.workload->MakePointQuery(3, req, rng);
    for (std::size_t s = 0; s < beds.services.size(); ++s) {
      hops[s] += static_cast<double>(beds.services[s]->Query(q).stats.dht_hops);
    }
  }
  const double lorm = hops[0], mercury = hops[1], sword = hops[2],
               maan = hops[3], d1ht = hops[4];
  // One-hop lookups put D1HT below every multi-hop system (Fig. 4's floor).
  EXPECT_LT(d1ht, sword);
  EXPECT_LT(d1ht, mercury);
  // MAAN doubles the lookups of Mercury/SWORD over the same ring.
  EXPECT_NEAR(maan / mercury, 2.0, 0.35);
  EXPECT_NEAR(maan / sword, 2.0, 0.35);
  // Fig. 4 ordering: Mercury/SWORD < LORM < MAAN.
  EXPECT_LT(mercury, lorm);
  EXPECT_LT(sword, lorm);
  EXPECT_LT(lorm, maan);
}

TEST(StorageOrdering, Theorem42TotalPieces) {
  auto beds = MakeAll();
  const std::size_t base = beds.infos.size();
  for (const auto& svc : beds.services) {
    // Dual placement stores every piece twice (Theorem 4.2); D1HT keeps
    // MAAN's placement on the single-hop substrate.
    const std::size_t expected =
        (svc->name() == "MAAN" || svc->name() == "D1HT") ? 2 * base : base;
    EXPECT_EQ(svc->TotalInfoPieces(), expected) << svc->name();
  }
}

TEST(BalanceOrdering, Theorem46FairnessRanking) {
  // Jain-fairness of directory loads: Mercury and LORM more balanced than
  // SWORD and MAAN (Theorem 4.6). (Mercury vs LORM — Theorem 4.5 — needs
  // near-uniform values; the Small setup's harsh Pareto blurs it, so only
  // the class-level ordering is asserted here. The fig3 benches show the
  // full picture under the paper's setup.)
  auto beds = MakeAll();
  double fairness[5];
  for (std::size_t s = 0; s < beds.services.size(); ++s) {
    fairness[s] = JainFairness(beds.services[s]->DirectorySizes());
  }
  const double lorm = fairness[0], mercury = fairness[1], sword = fairness[2],
               maan = fairness[3], d1ht = fairness[4];
  // Same placement, same directory loads: D1HT inherits MAAN's imbalance.
  EXPECT_NEAR(d1ht, maan, 1e-9);
  EXPECT_GT(mercury, sword);
  EXPECT_GT(mercury, maan);
  EXPECT_GT(lorm, sword);
  EXPECT_GT(lorm, maan);
}

TEST(OutlinkOrdering, Theorem41MercuryPaysMFold) {
  auto beds = MakeAll();
  const auto avg = [](const std::vector<double>& v) {
    double t = 0;
    for (double x : v) t += x;
    return t / static_cast<double>(v.size());
  };
  const double lorm = avg(beds.services[0]->OutlinkCounts());
  const double mercury = avg(beds.services[1]->OutlinkCounts());
  const double sword = avg(beds.services[2]->OutlinkCounts());
  EXPECT_LE(lorm, 7.0);
  // Mercury pays ~m times one ring's state.
  EXPECT_NEAR(mercury / sword, static_cast<double>(beds.setup.attributes),
              2.0);
  EXPECT_GT(mercury / lorm,
            static_cast<double>(beds.setup.attributes));  // Theorem 4.1
}

}  // namespace
}  // namespace lorm::discovery
