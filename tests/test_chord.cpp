// Chord DHT simulator tests: ring invariants, routing correctness and cost,
// membership changes, and observer semantics.
#include "chord/chord.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.hpp"
#include "common/stats.hpp"

namespace lorm::chord {
namespace {

Config SmallCfg(unsigned bits = 10) {
  Config cfg;
  cfg.bits = bits;
  return cfg;
}

TEST(ChordInterval, OpenClosedBasics) {
  EXPECT_TRUE(InIntervalOC(5, 3, 7));
  EXPECT_TRUE(InIntervalOC(7, 3, 7));
  EXPECT_FALSE(InIntervalOC(3, 3, 7));
  EXPECT_FALSE(InIntervalOC(8, 3, 7));
  // Wrapped interval (7, 3].
  EXPECT_TRUE(InIntervalOC(1, 7, 3));
  EXPECT_TRUE(InIntervalOC(3, 7, 3));
  EXPECT_TRUE(InIntervalOC(9, 7, 3));
  EXPECT_FALSE(InIntervalOC(5, 7, 3));
  // Degenerate interval covers the whole ring.
  EXPECT_TRUE(InIntervalOC(0, 4, 4));
  EXPECT_TRUE(InIntervalOC(4, 4, 4));
}

TEST(ChordInterval, OpenOpenBasics) {
  EXPECT_TRUE(InIntervalOO(5, 3, 7));
  EXPECT_FALSE(InIntervalOO(7, 3, 7));
  EXPECT_FALSE(InIntervalOO(3, 3, 7));
  EXPECT_TRUE(InIntervalOO(9, 7, 3));
  EXPECT_FALSE(InIntervalOO(3, 7, 3));
  // Degenerate: everything but the endpoint.
  EXPECT_TRUE(InIntervalOO(1, 4, 4));
  EXPECT_FALSE(InIntervalOO(4, 4, 4));
}

TEST(ChordRing, ConfigValidation) {
  Config bad;
  bad.bits = 0;
  EXPECT_THROW(ChordRing r(bad), ConfigError);
  bad.bits = 64;
  EXPECT_THROW(ChordRing r(bad), ConfigError);
  bad.bits = 8;
  bad.successor_list = 0;
  EXPECT_THROW(ChordRing r(bad), ConfigError);
}

TEST(ChordRing, SingleNodeOwnsEverything) {
  ChordRing ring(SmallCfg());
  ring.AddNodeWithId(0, 42);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.OwnerOf(0), 0u);
  EXPECT_EQ(ring.OwnerOf(1023), 0u);
  const auto res = ring.Lookup(7, 0);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.owner, 0u);
  EXPECT_EQ(res.hops, 0u);
  EXPECT_EQ(ring.Successor(0), 0u);
  EXPECT_EQ(ring.Predecessor(0), 0u);
}

TEST(ChordRing, DuplicateIdRejected) {
  ChordRing ring(SmallCfg());
  ring.AddNodeWithId(0, 10);
  EXPECT_THROW(ring.AddNodeWithId(1, 10), ConfigError);
  EXPECT_THROW(ring.AddNodeWithId(0, 11), ConfigError);
}

TEST(ChordRing, SuccessorPredecessorFormARing) {
  auto ring = MakeRing(64, SmallCfg(), /*deterministic_ids=*/false);
  const auto members = ring.Members();  // ascending id order
  ASSERT_EQ(members.size(), 64u);
  for (std::size_t i = 0; i < members.size(); ++i) {
    const NodeAddr next = members[(i + 1) % members.size()];
    EXPECT_EQ(ring.Successor(members[i]), next);
    EXPECT_EQ(ring.Predecessor(next), members[i]);
  }
}

TEST(ChordRing, OwnerOfMatchesSuccessorRule) {
  auto ring = MakeRing(16, SmallCfg(), true);
  // Deterministic: ids are evenly spaced (stride 1024/16 = 64, rotated by a
  // seed-derived offset).
  const Key spacing = (ring.IdOf(1) - ring.IdOf(0)) & (ring.space() - 1);
  EXPECT_EQ(spacing, 64u);
  for (NodeAddr a = 0; a < 16; ++a) {
    const Key id = ring.IdOf(a);
    EXPECT_EQ(ring.OwnerOf(id), a);                              // exact id
    EXPECT_EQ(ring.OwnerOf((id + 1) & (ring.space() - 1)),       // next key
              ring.Successor(a));
    EXPECT_EQ(ring.OwnerOf((id + 64) & (ring.space() - 1)),      // next node
              ring.Successor(a));
  }
}

// Property: from every origin, Lookup agrees with the ownership oracle.
class ChordLookupProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChordLookupProperty, LookupFindsOracleOwner) {
  const std::size_t n = GetParam();
  auto ring = MakeRing(n, SmallCfg(12), /*deterministic_ids=*/false);
  Rng rng(n);
  const auto members = ring.Members();
  for (int i = 0; i < 200; ++i) {
    const Key key = rng.NextBelow(ring.space());
    const NodeAddr origin = members[rng.NextBelow(members.size())];
    const auto res = ring.Lookup(key, origin);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.owner, ring.OwnerOf(key)) << "key=" << key;
    EXPECT_EQ(res.path.front(), origin);
    EXPECT_EQ(res.path.back(), res.owner);
    EXPECT_EQ(res.path.size(), static_cast<std::size_t>(res.hops) + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChordLookupProperty,
                         ::testing::Values(1, 2, 3, 5, 16, 100, 512));

TEST(ChordRing, HopsAreLogarithmic) {
  const std::size_t n = 1024;
  auto ring = MakeRing(n, SmallCfg(10), /*deterministic_ids=*/true);
  Rng rng(7);
  const auto members = ring.Members();
  OnlineStats hops;
  for (int i = 0; i < 2000; ++i) {
    const Key key = rng.NextBelow(ring.space());
    const NodeAddr origin = members[rng.NextBelow(members.size())];
    const auto res = ring.Lookup(key, origin);
    ASSERT_TRUE(res.ok);
    hops.Add(res.hops);
    EXPECT_LE(res.hops, 10u);  // at most bits hops in a converged ring
  }
  // Average ~ log2(n)/2 = 5 (Stoica et al.); allow generous slack.
  EXPECT_NEAR(hops.mean(), 5.0, 1.0);
}

TEST(ChordRing, OutlinksAreLogarithmic) {
  auto ring = MakeRing(2048, SmallCfg(11), /*deterministic_ids=*/true);
  // Fully populated 11-bit ring: exactly 11 distinct fingers.
  EXPECT_EQ(ring.FingerTableSize(0), 11u);
  // Outlinks add successor list & predecessor.
  const std::size_t out = ring.Outlinks(0);
  EXPECT_GE(out, 11u);
  EXPECT_LE(out, 11u + ring.config().successor_list + 1);
}

TEST(ChordRing, JoinSplicesRing) {
  ChordRing ring(SmallCfg());
  ring.AddNodeWithId(0, 100);
  ring.AddNodeWithId(1, 500);
  ring.AddNodeWithId(2, 300);
  EXPECT_EQ(ring.Successor(0), 2u);
  EXPECT_EQ(ring.Successor(2), 1u);
  EXPECT_EQ(ring.Successor(1), 0u);
  EXPECT_EQ(ring.Predecessor(2), 0u);
  EXPECT_EQ(ring.OwnerOf(200), 2u);
  EXPECT_EQ(ring.OwnerOf(301), 1u);
  EXPECT_EQ(ring.OwnerOf(501), 0u);  // wrap
}

TEST(ChordRing, LeaveSplicesRing) {
  ChordRing ring(SmallCfg());
  ring.AddNodeWithId(0, 100);
  ring.AddNodeWithId(1, 500);
  ring.AddNodeWithId(2, 300);
  ring.RemoveNode(2);
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.Successor(0), 1u);
  EXPECT_EQ(ring.Predecessor(1), 0u);
  EXPECT_EQ(ring.OwnerOf(200), 1u);
  // Routing still works with node 2's stale fingers gone.
  const auto res = ring.Lookup(200, 0);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.owner, 1u);
}

TEST(ChordRing, RemoveLastNode) {
  ChordRing ring(SmallCfg());
  ring.AddNodeWithId(0, 100);
  ring.RemoveNode(0);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_FALSE(ring.Contains(0));
}

TEST(ChordRing, RoutingSurvivesChurnWithoutStabilization) {
  auto ring = MakeRing(128, SmallCfg(12), /*deterministic_ids=*/false);
  Rng rng(99);
  NodeAddr next_addr = 1000;
  // Interleave joins and leaves with lookups; never call StabilizeAll.
  for (int round = 0; round < 60; ++round) {
    if (rng.NextBool() && ring.size() > 8) {
      const auto members = ring.Members();
      ring.RemoveNode(members[rng.NextBelow(members.size())]);
    } else {
      ring.AddNode(next_addr++);
    }
    const auto members = ring.Members();
    for (int i = 0; i < 5; ++i) {
      const Key key = rng.NextBelow(ring.space());
      const NodeAddr origin = members[rng.NextBelow(members.size())];
      const auto res = ring.Lookup(key, origin);
      ASSERT_TRUE(res.ok) << "round " << round;
      EXPECT_EQ(res.owner, ring.OwnerOf(key));
    }
  }
}

TEST(ChordRing, StabilizeRefreshesFingers) {
  auto ring = MakeRing(64, SmallCfg(12), false);
  Rng rng(5);
  for (int i = 0; i < 20; ++i) ring.AddNode(5000 + i);
  ring.StabilizeAll();
  // After stabilization every lookup should finish within bits hops.
  const auto members = ring.Members();
  for (int i = 0; i < 200; ++i) {
    const Key key = rng.NextBelow(ring.space());
    const auto res = ring.Lookup(key, members[rng.NextBelow(members.size())]);
    ASSERT_TRUE(res.ok);
    EXPECT_LE(res.hops, 12u);
  }
}

// A leave splices the first *live* entry of its successor list, which can
// be stale. Here c crashes, w joins between c and d, and x — whose list
// still reads [c, d, ...] — leaves: d is pointed back at x's predecessor p
// although w now precedes it. Three moved arcs on a 255-member ring stay
// below the sweep threshold, so the repair itself must give d its
// predecessor back, though d owns none of the arcs (w owns all three).
TEST(ChordRing, ArcRepairFixesALeaveSplicedPastAJoin) {
  ChordRing ring(SmallCfg(10));
  std::vector<std::pair<NodeAddr, Key>> members;
  for (NodeAddr a = 0; a < 256; ++a) members.push_back({a, Key{4} * a});
  ring.BulkAssign(members);
  const NodeAddr p = 24, x = 25, c = 26, d = 27, w = 1000;  // ids 96..108
  ring.FailNode(c);
  ring.AddNodeWithId(w, 106);
  ring.RemoveNode(x);
  ASSERT_EQ(ring.Predecessor(d), p);  // the stale splice
  ring.StabilizeAll();
  EXPECT_TRUE(ring.LinksMatchOracle());
  EXPECT_EQ(ring.Predecessor(d), w);
  EXPECT_EQ(ring.Predecessor(w), p);
  EXPECT_EQ(ring.Successor(p), w);
}

// The node a leave splices can sit several positions past every moved arc's
// owner. x lists [j2, b, ...] after j1 and then j2 join in front of a (a
// join rewrites only entry 0 of its predecessor's list); j2 crashes and x
// leaves, so b — not j1, the true successor — is pointed back at p. All
// four arcs are owned by j1, whose successor is a, not b: the repair must
// still rebuild the predecessor the splice wrote.
TEST(ChordRing, ArcRepairFixesASpliceBeyondTheArcOwner) {
  ChordRing ring(SmallCfg(12));
  std::vector<std::pair<NodeAddr, Key>> members;
  for (NodeAddr k = 0; k < 1024; ++k) members.push_back({k, Key{4} * k});
  ring.BulkAssign(members);
  const NodeAddr p = 24, x = 25, a = 26, b = 27, j1 = 2000, j2 = 2001;
  ring.AddNodeWithId(j1, 103);
  ring.AddNodeWithId(j2, 101);
  ring.FailNode(j2);
  ring.RemoveNode(x);
  ASSERT_EQ(ring.Predecessor(b), p);  // the stale splice
  ring.StabilizeAll();
  EXPECT_TRUE(ring.LinksMatchOracle());
  EXPECT_EQ(ring.Predecessor(b), a);
  EXPECT_EQ(ring.Predecessor(j1), p);
  EXPECT_EQ(ring.Successor(p), j1);
  EXPECT_FALSE(ring.Owns(b, 100));
  EXPECT_TRUE(ring.Owns(j1, 100));
}

class RecordingObserver : public MembershipObserver {
 public:
  void OnJoin(NodeAddr node, NodeAddr successor) override {
    joins.emplace_back(node, successor);
  }
  void OnLeave(NodeAddr node, NodeAddr successor) override {
    leaves.emplace_back(node, successor);
  }
  std::vector<std::pair<NodeAddr, NodeAddr>> joins;
  std::vector<std::pair<NodeAddr, NodeAddr>> leaves;
};

TEST(ChordRing, ObserversSeeJoinAndLeave) {
  ChordRing ring(SmallCfg());
  RecordingObserver obs;
  ring.SetObserver(&obs);
  ring.AddNodeWithId(0, 100);
  ASSERT_EQ(obs.joins.size(), 1u);
  EXPECT_EQ(obs.joins[0], std::make_pair(NodeAddr{0}, NodeAddr{0}));
  ring.AddNodeWithId(1, 500);
  ASSERT_EQ(obs.joins.size(), 2u);
  // Keys in (100, 500] move from node 0 (which owned everything) to node 1.
  EXPECT_EQ(obs.joins[1].first, 1u);
  EXPECT_EQ(obs.joins[1].second, 0u);
  ring.RemoveNode(1);
  ASSERT_EQ(obs.leaves.size(), 1u);
  EXPECT_EQ(obs.leaves[0], std::make_pair(NodeAddr{1}, NodeAddr{0}));
  ring.RemoveNode(0);
  ASSERT_EQ(obs.leaves.size(), 2u);
  EXPECT_EQ(obs.leaves[1].second, kNoNode);
  ring.SetObserver(nullptr);
}

TEST(ChordRing, HashedIdsAreCollisionFreeAndStable) {
  ChordRing a(SmallCfg(16));
  ChordRing b(SmallCfg(16));
  std::set<Key> ids;
  for (NodeAddr addr = 0; addr < 500; ++addr) {
    const Key id = a.AddNode(addr);
    EXPECT_TRUE(ids.insert(id).second) << "id collision for " << addr;
    EXPECT_EQ(b.AddNode(addr), id) << "ids must be a pure hash of the address";
  }
}

TEST(ChordRing, OwnsUsesPredecessorSector) {
  auto ring = MakeRing(4, SmallCfg(8), true);  // evenly spaced, stride 64
  const Key mask = ring.space() - 1;
  for (NodeAddr a = 0; a < 4; ++a) {
    const Key id = ring.IdOf(a);
    EXPECT_TRUE(ring.Owns(a, id));
    EXPECT_TRUE(ring.Owns(a, (id - 1) & mask));   // within (pred, id]
    EXPECT_TRUE(ring.Owns(a, (id - 63) & mask));  // sector's low end
    EXPECT_FALSE(ring.Owns(a, (id - 64) & mask)); // predecessor's own id
    EXPECT_FALSE(ring.Owns(a, (id + 1) & mask));  // past its sector
  }
}

TEST(ChordRing, LookupFromUnknownOriginFails) {
  auto ring = MakeRing(8, SmallCfg(), true);
  const auto res = ring.Lookup(1, /*origin=*/999);
  EXPECT_FALSE(res.ok);
}

TEST(ChordRing, MakeRingRejectsOverfull) {
  Config cfg = SmallCfg(4);  // 16 ids
  EXPECT_THROW(MakeRing(17, cfg, true), ConfigError);
}

// MakeRing builds through BulkAssign; the result must be the ring that n
// sequential joins plus one stabilization round converge to, in both ID
// modes: same members and IDs (hashed mode replays AddNode's collision
// salting), same links, and identical lookups.
class ChordBulkBuild : public ::testing::TestWithParam<bool> {};

TEST_P(ChordBulkBuild, MatchesSequentialJoinsPlusStabilize) {
  const bool deterministic = GetParam();
  Config cfg = SmallCfg(deterministic ? 9 : 12);
  cfg.seed = 0xB01Cu;
  const std::size_t n = 300;
  const ChordRing bulk = MakeRing(n, cfg, deterministic);

  ChordRing seq(cfg);
  for (NodeAddr addr = 0; addr < n; ++addr) {
    if (deterministic) {
      seq.AddNodeWithId(addr, bulk.IdOf(addr));
    } else {
      seq.AddNode(addr);
    }
  }
  seq.StabilizeAll();

  ASSERT_EQ(bulk.Members(), seq.Members());
  for (const NodeAddr addr : seq.Members()) {
    EXPECT_EQ(bulk.IdOf(addr), seq.IdOf(addr));
    EXPECT_EQ(bulk.Successor(addr), seq.Successor(addr));
    EXPECT_EQ(bulk.Predecessor(addr), seq.Predecessor(addr));
    EXPECT_EQ(bulk.SuccessorListOf(addr), seq.SuccessorListOf(addr));
    EXPECT_EQ(bulk.FingersOf(addr), seq.FingersOf(addr));
    EXPECT_EQ(bulk.NeighborsOf(addr), seq.NeighborsOf(addr));
    EXPECT_EQ(bulk.Outlinks(addr), seq.Outlinks(addr));
  }
  Rng rng(7);
  LookupResult a;
  LookupResult b;
  for (int i = 0; i < 500; ++i) {
    const Key key = rng.NextBelow(bulk.space());
    const auto origin = static_cast<NodeAddr>(rng.NextBelow(n));
    bulk.LookupInto(key, origin, a);
    seq.LookupInto(key, origin, b);
    ASSERT_EQ(a.ok, b.ok);
    ASSERT_EQ(a.owner, b.owner);
    ASSERT_EQ(a.hops, b.hops);
    ASSERT_EQ(a.path, b.path);
  }
}

INSTANTIATE_TEST_SUITE_P(IdModes, ChordBulkBuild, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Deterministic" : "Hashed";
                         });

}  // namespace
}  // namespace lorm::chord
