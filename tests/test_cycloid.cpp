// Cycloid DHT simulator tests: constant degree, hierarchical ownership,
// routing correctness/cost, membership changes and observer semantics.
#include "cycloid/cycloid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "common/random.hpp"
#include "common/stats.hpp"

namespace lorm::cycloid {
namespace {

Config Cfg(unsigned d = 5) {
  Config cfg;
  cfg.dimension = d;
  return cfg;
}

TEST(CycloidNetwork, ConfigValidation) {
  Config bad;
  bad.dimension = 1;
  EXPECT_THROW(CycloidNetwork n(bad), ConfigError);
  bad.dimension = 25;
  EXPECT_THROW(CycloidNetwork n(bad), ConfigError);
}

TEST(CycloidNetwork, CapacityAndDimensionFor) {
  CycloidNetwork net(Cfg(8));
  EXPECT_EQ(net.capacity(), 8u * 256u);
  EXPECT_EQ(DimensionFor(2048), 8u);
  EXPECT_EQ(DimensionFor(2049), 9u);
  EXPECT_EQ(DimensionFor(1), 2u);
  EXPECT_EQ(DimensionFor(320), 6u);
}

TEST(CycloidNetwork, SingleNodeOwnsEverything) {
  CycloidNetwork net(Cfg());
  net.AddNodeWithId(0, {2, 7});
  EXPECT_EQ(net.OwnerOf({0, 0}), 0u);
  EXPECT_EQ(net.OwnerOf({4, 31}), 0u);
  const auto res = net.Lookup({1, 3}, 0);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.owner, 0u);
  EXPECT_EQ(res.hops, 0u);
  EXPECT_EQ(net.InsideSuccessor(0), 0u);
}

TEST(CycloidNetwork, RejectsBadIdsAndCollisions) {
  CycloidNetwork net(Cfg(5));
  net.AddNodeWithId(0, {2, 7});
  EXPECT_THROW(net.AddNodeWithId(1, {2, 7}), ConfigError);   // occupied
  EXPECT_THROW(net.AddNodeWithId(0, {3, 7}), ConfigError);   // addr reused
  EXPECT_THROW(net.AddNodeWithId(2, {5, 7}), ConfigError);   // k >= d
  EXPECT_THROW(net.AddNodeWithId(2, {0, 32}), ConfigError);  // a >= 2^d
}

TEST(CycloidNetwork, ConstantDegree) {
  auto net = MakeCycloid(5 * 32, Cfg(5));  // fully populated
  for (NodeAddr addr : net.Members()) {
    EXPECT_LE(net.Outlinks(addr), 7u);
    EXPECT_GE(net.Outlinks(addr), 3u);
  }
}

TEST(CycloidNetwork, DegreeIndependentOfSize) {
  // The defining Cycloid property (Fig. 3(a) of the paper): degree does not
  // grow with n.
  for (std::size_t n : {64u, 256u, 1024u, 2048u}) {
    auto net = MakeCycloid(n, Cfg(DimensionFor(n)));
    double max_links = 0;
    for (NodeAddr addr : net.Members()) {
      max_links = std::max(max_links, static_cast<double>(net.Outlinks(addr)));
    }
    EXPECT_LE(max_links, 7.0) << "n=" << n;
  }
}

TEST(CycloidNetwork, ClusterMembersShareCubicalIndex) {
  auto net = MakeCycloid(5 * 32, Cfg(5));
  const auto members = net.ClusterMembersOf(12);
  ASSERT_EQ(members.size(), 5u);  // full cluster has d members
  for (NodeAddr addr : members) {
    EXPECT_EQ(net.IdOf(addr).a, 12u);
  }
}

TEST(CycloidNetwork, InsideLeafSetFormsSmallCycle) {
  auto net = MakeCycloid(5 * 32, Cfg(5));
  const auto members = net.ClusterMembersOf(3);  // cyclic order
  ASSERT_EQ(members.size(), 5u);
  for (std::size_t i = 0; i < members.size(); ++i) {
    EXPECT_EQ(net.InsideSuccessor(members[i]),
              members[(i + 1) % members.size()]);
    EXPECT_EQ(net.InsidePredecessor(members[(i + 1) % members.size()]),
              members[i]);
  }
}

TEST(CycloidNetwork, OwnerOfFollowsHierarchicalSectors) {
  auto net = MakeCycloid(5 * 32, Cfg(5));
  // Fully populated: owner of (k, a) is exactly the node at (k, a).
  for (unsigned k = 0; k < 5; ++k) {
    for (std::uint64_t a = 0; a < 32; a += 7) {
      const NodeAddr owner = net.OwnerOf({k, a});
      EXPECT_EQ(net.IdOf(owner).k, k);
      EXPECT_EQ(net.IdOf(owner).a, a);
      EXPECT_TRUE(net.Owns(owner, {k, a}));
    }
  }
}

// Property: routing agrees with the ownership oracle, across population
// levels (full, partial, sparse).
class CycloidLookupProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CycloidLookupProperty, LookupFindsOracleOwner) {
  const std::size_t n = GetParam();
  auto net = MakeCycloid(n, Cfg(6));  // capacity 384
  Rng rng(n);
  const auto members = net.Members();
  for (int i = 0; i < 300; ++i) {
    const CycloidId key{static_cast<unsigned>(rng.NextBelow(6)),
                        rng.NextBelow(64)};
    const NodeAddr origin = members[rng.NextBelow(members.size())];
    const auto res = net.Lookup(key, origin);
    ASSERT_TRUE(res.ok) << "key=(" << key.k << "," << key.a << ")";
    EXPECT_EQ(res.owner, net.OwnerOf(key));
    EXPECT_EQ(res.path.front(), origin);
    EXPECT_EQ(res.path.back(), res.owner);
    EXPECT_EQ(res.path.size(), static_cast<std::size_t>(res.hops) + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Populations, CycloidLookupProperty,
                         ::testing::Values(1, 2, 7, 48, 150, 384));

TEST(CycloidNetwork, PathLengthIsOrderD) {
  // Fully populated d=8 Cycloid (the paper's 2048-node configuration).
  auto net = MakeCycloid(8 * 256, Cfg(8));
  Rng rng(17);
  const auto members = net.Members();
  OnlineStats hops;
  for (int i = 0; i < 2000; ++i) {
    const CycloidId key{static_cast<unsigned>(rng.NextBelow(8)),
                        rng.NextBelow(256)};
    const NodeAddr origin = members[rng.NextBelow(members.size())];
    const auto res = net.Lookup(key, origin);
    ASSERT_TRUE(res.ok);
    hops.Add(res.hops);
  }
  // O(d) routing: average must be near d = 8 and well below Chord's
  // 2*log2(n)/2 = 11 that MAAN pays for two lookups.
  EXPECT_GT(hops.mean(), 4.0);
  EXPECT_LT(hops.mean(), 11.0);
  EXPECT_LE(hops.max(), 4.0 * 8 + 8);
}

TEST(CycloidNetwork, JoinCreatingClusterTakesSector) {
  CycloidNetwork net(Cfg(5));
  net.AddNodeWithId(0, {1, 10});
  net.AddNodeWithId(1, {3, 10});
  net.AddNodeWithId(2, {2, 20});
  // Cubical 15 currently owned by cluster 20.
  EXPECT_EQ(net.IdOf(net.OwnerOf({0, 15})).a, 20u);
  net.AddNodeWithId(3, {4, 15});
  EXPECT_EQ(net.OwnerOf({0, 15}), 3u);
  EXPECT_EQ(net.OwnerOf({4, 12}), 3u);  // (10, 15] sector moved
  // Routing reaches the new cluster from everywhere.
  for (NodeAddr origin : net.Members()) {
    const auto res = net.Lookup({4, 15}, origin);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.owner, 3u);
  }
}

TEST(CycloidNetwork, LeaveDissolvingClusterReturnsSector) {
  CycloidNetwork net(Cfg(5));
  net.AddNodeWithId(0, {1, 10});
  net.AddNodeWithId(1, {2, 20});
  net.AddNodeWithId(2, {4, 15});
  EXPECT_EQ(net.OwnerOf({0, 13}), 2u);
  net.RemoveNode(2);
  EXPECT_EQ(net.IdOf(net.OwnerOf({0, 13})).a, 20u);
  for (NodeAddr origin : net.Members()) {
    const auto res = net.Lookup({0, 13}, origin);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(net.IdOf(res.owner).a, 20u);
  }
}

TEST(CycloidNetwork, RoutingSurvivesChurnWithoutStabilization) {
  auto net = MakeCycloid(150, Cfg(6));
  Rng rng(23);
  NodeAddr next_addr = 5000;
  for (int round = 0; round < 60; ++round) {
    if (rng.NextBool() && net.size() > 8) {
      const auto members = net.Members();
      net.RemoveNode(members[rng.NextBelow(members.size())]);
    } else {
      net.AddNode(next_addr++);
    }
    const auto members = net.Members();
    for (int i = 0; i < 5; ++i) {
      const CycloidId key{static_cast<unsigned>(rng.NextBelow(6)),
                          rng.NextBelow(64)};
      const NodeAddr origin = members[rng.NextBelow(members.size())];
      const auto res = net.Lookup(key, origin);
      ASSERT_TRUE(res.ok) << "round " << round;
      EXPECT_EQ(res.owner, net.OwnerOf(key));
    }
  }
}

TEST(CycloidNetwork, HashedJoinProbesFreePosition) {
  CycloidNetwork net(Cfg(3));  // capacity 24
  std::set<std::pair<unsigned, std::uint64_t>> seen;
  for (NodeAddr addr = 0; addr < 24; ++addr) {
    const CycloidId id = net.AddNode(addr);
    EXPECT_TRUE(seen.insert({id.k, id.a}).second);
  }
  EXPECT_EQ(net.size(), 24u);
  EXPECT_THROW(net.AddNode(99), InvariantError);  // full
}

class RecordingObserver : public MembershipObserver {
 public:
  void OnJoin(NodeAddr node, const std::vector<NodeAddr>& sources) override {
    joins.emplace_back(node, sources);
  }
  void OnLeave(NodeAddr node) override { leaves.push_back(node); }
  std::vector<std::pair<NodeAddr, std::vector<NodeAddr>>> joins;
  std::vector<NodeAddr> leaves;
};

TEST(CycloidNetwork, JoinIntoExistingClusterReportsCyclicSuccessor) {
  CycloidNetwork net(Cfg(5));
  RecordingObserver obs;
  net.AddObserver(&obs);
  net.AddNodeWithId(0, {1, 10});
  ASSERT_EQ(obs.joins.size(), 1u);
  EXPECT_TRUE(obs.joins[0].second.empty());  // first node: nothing to move
  net.AddNodeWithId(1, {3, 10});
  ASSERT_EQ(obs.joins.size(), 2u);
  // Same cluster: only the cyclic successor (node 0 at k=1, owner of k=3
  // before the join via wrap) may lose entries.
  EXPECT_EQ(obs.joins[1].second, std::vector<NodeAddr>{0});
  net.RemoveObserver(&obs);
}

TEST(CycloidNetwork, JoinCreatingClusterReportsSucceedingCluster) {
  CycloidNetwork net(Cfg(5));
  net.AddNodeWithId(0, {1, 20});
  net.AddNodeWithId(1, {3, 20});
  RecordingObserver obs;
  net.AddObserver(&obs);
  net.AddNodeWithId(2, {2, 10});
  ASSERT_EQ(obs.joins.size(), 1u);
  // New cluster 10: its sector was owned by members of cluster 20.
  auto sources = obs.joins[0].second;
  std::sort(sources.begin(), sources.end());
  EXPECT_EQ(sources, (std::vector<NodeAddr>{0, 1}));
  net.RemoveObserver(&obs);
}

TEST(CycloidNetwork, LeaveNotifiesObserver) {
  CycloidNetwork net(Cfg(5));
  net.AddNodeWithId(0, {1, 10});
  net.AddNodeWithId(1, {3, 10});
  RecordingObserver obs;
  net.AddObserver(&obs);
  net.RemoveNode(0);
  ASSERT_EQ(obs.leaves.size(), 1u);
  EXPECT_EQ(obs.leaves[0], 0u);
  // Ownership already reflects the departure during the callback; verify the
  // post-state here.
  EXPECT_EQ(net.OwnerOf({1, 10}), 1u);
  net.RemoveObserver(&obs);
}

TEST(CycloidNetwork, MembersAreInLexicographicOrder) {
  auto net = MakeCycloid(48, Cfg(6));
  const auto members = net.Members();
  CycloidId prev = net.IdOf(members.front());
  for (std::size_t i = 1; i < members.size(); ++i) {
    const CycloidId cur = net.IdOf(members[i]);
    EXPECT_TRUE(cur.a > prev.a || (cur.a == prev.a && cur.k > prev.k));
    prev = cur;
  }
}

TEST(CycloidNetwork, LookupFromUnknownOriginFails) {
  auto net = MakeCycloid(10, Cfg(5));
  EXPECT_FALSE(net.Lookup({0, 0}, 999).ok);
}

// MakeCycloid builds through BulkAssign; the result must be the network
// that the same joins plus one stabilization round converge to — on a
// partially and a fully populated overlay.
class CycloidBulkBuild : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CycloidBulkBuild, MatchesSequentialJoinsPlusStabilize) {
  const Config cfg = Cfg(6);
  const std::size_t n = GetParam();
  const CycloidNetwork bulk = MakeCycloid(n, cfg);

  CycloidNetwork seq(cfg);
  for (NodeAddr addr = 0; addr < n; ++addr) {
    seq.AddNodeWithId(addr, bulk.IdOf(addr));
  }
  seq.StabilizeAll();

  ASSERT_EQ(bulk.Members(), seq.Members());
  for (const NodeAddr addr : seq.Members()) {
    EXPECT_EQ(bulk.IdOf(addr), seq.IdOf(addr));
    EXPECT_EQ(bulk.InsideSuccessor(addr), seq.InsideSuccessor(addr));
    EXPECT_EQ(bulk.InsidePredecessor(addr), seq.InsidePredecessor(addr));
    EXPECT_EQ(bulk.NeighborsOf(addr), seq.NeighborsOf(addr));
    EXPECT_EQ(bulk.Outlinks(addr), seq.Outlinks(addr));
  }
  Rng rng(11);
  LookupResult a;
  LookupResult b;
  for (int i = 0; i < 500; ++i) {
    const CycloidId key{static_cast<unsigned>(rng.NextBelow(cfg.dimension)),
                        rng.NextBelow(bulk.cluster_space())};
    const auto origin = static_cast<NodeAddr>(rng.NextBelow(n));
    bulk.LookupInto(key, origin, a);
    seq.LookupInto(key, origin, b);
    ASSERT_EQ(a.ok, b.ok);
    ASSERT_EQ(a.owner, b.owner);
    ASSERT_EQ(a.hops, b.hops);
    ASSERT_EQ(a.path, b.path);
  }
}

INSTANTIATE_TEST_SUITE_P(Occupancy, CycloidBulkBuild,
                         ::testing::Values(std::size_t{300}, std::size_t{384}));

}  // namespace
}  // namespace lorm::cycloid
