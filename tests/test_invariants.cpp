// Randomized structural-invariant suite: seeded, deterministic
// join/leave/crash sequences against both overlays, re-checking after every
// step that
//
//   * the membership oracle agrees with an independently maintained model
//     (OwnerOf == brute-force successor over the model's ID vector);
//   * routed lookups land on the oracle owner (Chord always; Cycloid
//     whenever the walk completes — pre-repair failures are legal, wrong
//     owners never are);
//
// and, after one self-organization round,
//
//   * Chord's successor/predecessor ring is exactly the sorted ID circle,
//     every finger i of every node points to OwnerOf(id + 2^i), and every
//     stored link equals its oracle derivation (LinksMatchOracle) — whether
//     the round repaired only the moved arcs or swept the whole ring;
//   * Cycloid's inside leaf sets are a symmetric cyclic permutation of each
//     cluster and ClusterMembersOf matches the model.
//
// The whole suite runs twice — route cache off and on — so the learned
// shortcuts are fuzzed under the same churn as the tables they bypass: a
// cached jump that survives validation must never change where a lookup
// lands.
// The single-hop ring runs the same churn script with a stronger
// after-every-step contract: each live node's full routing table must equal
// the live membership exactly (the EDRA discrete-step model), every lookup
// must land on the oracle owner in at most one hop, and stale crash links
// must never change where anything lands.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <vector>

#include "chord/chord.hpp"
#include "common/random.hpp"
#include "cycloid/cycloid.hpp"
#include "singlehop/singlehop.hpp"

namespace lorm {
namespace {

// ---- Chord -----------------------------------------------------------------

using ChordModel = std::map<chord::Key, NodeAddr>;  // id -> addr, sorted

NodeAddr BruteChordOwner(const ChordModel& model, chord::Key key) {
  auto it = model.lower_bound(key);
  if (it == model.end()) it = model.begin();
  return it->second;
}

/// Oracle-vector agreement; holds after *every* step, stale links or not.
void CheckChordOracle(const chord::ChordRing& ring, const ChordModel& model,
                      Rng& rng) {
  ASSERT_EQ(ring.size(), model.size());
  for (const auto& [id, addr] : model) {
    ASSERT_TRUE(ring.Contains(addr));
    ASSERT_EQ(ring.IdOf(addr), id);
  }
  for (int i = 0; i < 8; ++i) {
    const chord::Key key = rng.NextBelow(ring.space());
    ASSERT_EQ(ring.OwnerOf(key), BruteChordOwner(model, key));
  }
}

/// Protocol-state invariants; hold once stabilization has converged.
void CheckChordStructure(const chord::ChordRing& ring,
                         const ChordModel& model) {
  std::vector<std::pair<chord::Key, NodeAddr>> sorted(model.begin(),
                                                      model.end());
  const std::size_t n = sorted.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto [id, addr] = sorted[i];
    const NodeAddr succ = sorted[(i + 1) % n].second;
    const NodeAddr pred = sorted[(i + n - 1) % n].second;
    ASSERT_EQ(ring.Successor(addr), succ) << "successor ring broken";
    ASSERT_EQ(ring.Predecessor(addr), pred) << "predecessor ring broken";
    ASSERT_TRUE(ring.Owns(addr, id));
    if (n > 1) {
      ASSERT_FALSE(ring.Owns(addr, (id + 1) & (ring.space() - 1)));
    }
  }
  // Finger invariant on every node: entry i targets the owner of id + 2^i
  // (FingersOf reports raw table order).
  for (const auto& [id, addr] : sorted) {
    const auto fingers = ring.FingersOf(addr);
    ASSERT_EQ(fingers.size(), ring.bits());
    for (unsigned i = 0; i < ring.bits(); ++i) {
      const chord::Key start = (id + (chord::Key{1} << i)) & (ring.space() - 1);
      ASSERT_EQ(fingers[i], ring.OwnerOf(start))
          << "finger " << i << " of node " << addr << " is stale";
    }
  }
  // Every link, generations and cached ids included, equals what a full
  // rebuild from the oracle writes.
  ASSERT_TRUE(ring.LinksMatchOracle());
}

void CheckChordLookups(const chord::ChordRing& ring, const ChordModel& model,
                       Rng& rng, bool converged) {
  const auto members = ring.Members();
  for (int i = 0; i < 6; ++i) {
    const chord::Key key = rng.NextBelow(ring.space());
    const NodeAddr origin = members[rng.NextBelow(members.size())];
    const auto res = ring.Lookup(key, origin);
    ASSERT_TRUE(res.ok);
    ASSERT_EQ(res.owner, BruteChordOwner(model, key));
    ASSERT_EQ(res.path.front(), origin);
    ASSERT_EQ(res.path.back(), res.owner);
    if (converged) {
      ASSERT_EQ(res.path.size(), res.hops + 1u);
    }
  }
}

/// Seeded join/leave/crash churn with StabilizeAll after every
/// `stabilize_every`-th step. Between stabilizations, crashed nodes leave
/// stale predecessor links behind that later joins and leaves must splice
/// around.
void RunChordChurn(bool route_cache, int stabilize_every) {
  for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
    chord::Config cfg;
    cfg.bits = 14;
    cfg.seed = seed;
    cfg.route_cache = route_cache;
    auto ring = chord::MakeRing(96, cfg, /*deterministic_ids=*/false);

    ChordModel model;
    for (const NodeAddr addr : ring.Members()) model[ring.IdOf(addr)] = addr;

    Rng rng(seed * 7919);
    NodeAddr next_addr = 10'000;
    for (int step = 0; step < 80; ++step) {
      const auto op = rng.NextBelow(10);
      if (op < 4 || ring.size() < 16) {
        const NodeAddr addr = next_addr++;
        const chord::Key id = ring.AddNode(addr);
        model[id] = addr;
      } else {
        const auto members = ring.Members();
        const NodeAddr victim = members[rng.NextBelow(members.size())];
        if (op < 7) {
          ring.RemoveNode(victim);
        } else {
          ring.FailNode(victim);
        }
        for (auto it = model.begin(); it != model.end(); ++it) {
          if (it->second == victim) {
            model.erase(it);
            break;
          }
        }
      }
      ASSERT_NO_FATAL_FAILURE(CheckChordOracle(ring, model, rng))
          << "seed " << seed << " step " << step;
      ASSERT_NO_FATAL_FAILURE(
          CheckChordLookups(ring, model, rng, /*converged=*/false))
          << "seed " << seed << " step " << step;
      if ((step + 1) % stabilize_every != 0) continue;
      ring.StabilizeAll();
      ASSERT_NO_FATAL_FAILURE(CheckChordStructure(ring, model))
          << "seed " << seed << " step " << step;
      ASSERT_NO_FATAL_FAILURE(
          CheckChordLookups(ring, model, rng, /*converged=*/true))
          << "seed " << seed << " step " << step;
    }
  }
}

/// Bursts of 1 to 40 joins, leaves and crashes between StabilizeAll calls
/// on a 512-member ring. The sweep takes over once events x (bits +
/// successor_list + 3) reach n: bursts of up to about 24 events (sparse
/// 14-bit ring) or 32 (full 9-bit ring) are repaired arc by arc, longer
/// ones swept, so both paths must leave exactly the full rebuild's links.
/// On the full ring every arc is one id wide and a join can only take an id
/// a leave or crash freed.
void RunChordBursts(bool route_cache, bool full_ring) {
  for (const std::uint64_t seed : {21ull, 22ull, 23ull}) {
    chord::Config cfg;
    cfg.bits = full_ring ? 9 : 14;
    cfg.seed = seed;
    cfg.route_cache = route_cache;
    auto ring = chord::MakeRing(512, cfg, /*deterministic_ids=*/full_ring);

    ChordModel model;
    for (const NodeAddr addr : ring.Members()) model[ring.IdOf(addr)] = addr;

    Rng rng(seed * 104729);
    NodeAddr next_addr = 10'000;
    for (int burst = 0; burst < 24; ++burst) {
      const auto events = 1 + rng.NextBelow(40);
      for (std::uint64_t e = 0; e < events; ++e) {
        const auto op = rng.NextBelow(10);
        const bool full = ring.size() == ring.space();
        if ((op < 4 && !full) || ring.size() < 64) {
          const NodeAddr addr = next_addr++;
          model[ring.AddNode(addr)] = addr;
          continue;
        }
        const auto members = ring.Members();
        const NodeAddr victim = members[rng.NextBelow(members.size())];
        model.erase(ring.IdOf(victim));
        if (op < 7) {
          ring.RemoveNode(victim);
        } else {
          ring.FailNode(victim);
        }
      }
      ring.StabilizeAll();
      ASSERT_NO_FATAL_FAILURE(CheckChordOracle(ring, model, rng))
          << "seed " << seed << " burst " << burst;
      ASSERT_NO_FATAL_FAILURE(CheckChordStructure(ring, model))
          << "seed " << seed << " burst " << burst << " of " << events;
      ASSERT_NO_FATAL_FAILURE(
          CheckChordLookups(ring, model, rng, /*converged=*/true))
          << "seed " << seed << " burst " << burst;
    }
  }
}

/// Churn packed around one gap per round — the pattern that makes splices
/// write through stale links. Each round picks a member u and the gap
/// (u, v) up to its successor; 2 to 5 joins land in the gap (a join
/// rewrites only entry 0 of its predecessor's list, so u's list keeps
/// members the later joins shadow), one joiner crashes, and u leaves: the
/// leave splices the first live member u still lists, which can lie past
/// a joiner. Random joins, crashes and leaves around the gap are mixed in
/// before each step. Rounds of 4 to 13 events on 1024 members 16 ids
/// apart stay far below the sweep cutoff (about 48 events), so the arc
/// repair and the rebuild of repointed predecessors alone must give the
/// full rebuild's links. Between rounds only the oracle is checked: until
/// the repair, lookups through such splices can end at the wrong member,
/// an open defect of the splices themselves.
void RunChordGapChurn(bool route_cache) {
  for (const std::uint64_t seed : {41ull, 42ull, 43ull}) {
    chord::Config cfg;
    cfg.bits = 14;
    cfg.seed = seed;
    cfg.route_cache = route_cache;
    auto ring = chord::MakeRing(1024, cfg, /*deterministic_ids=*/true);
    const chord::Key mask = ring.space() - 1;

    ChordModel model;
    for (const NodeAddr addr : ring.Members()) model[ring.IdOf(addr)] = addr;

    Rng rng(seed * 6151);
    NodeAddr next_addr = 10'000;
    auto join_at = [&](chord::Key id) {
      const NodeAddr addr = next_addr++;
      ring.AddNodeWithId(addr, id);
      model[id] = addr;
      return addr;
    };
    auto depart = [&](NodeAddr victim, bool crash) {
      model.erase(ring.IdOf(victim));
      if (crash) {
        ring.FailNode(victim);
      } else {
        ring.RemoveNode(victim);
      }
    };
    for (int round = 0; round < 60; ++round) {
      // u and the gap (u, v) to its successor, at least 8 ids wide.
      chord::Key u_id = 0;
      chord::Key width = 0;
      while (width < 8) {
        auto it = model.begin();
        std::advance(it, rng.NextBelow(model.size()));
        auto next = std::next(it);
        if (next == model.end()) next = model.begin();
        u_id = it->first;
        width = (next->first - u_id) & mask;
      }
      const NodeAddr u = model.at(u_id);
      std::size_t events = 0;
      // A random join, crash or leave within two gaps of u, never u itself.
      auto stray = [&] {
        ++events;
        const chord::Key at = (u_id - 16 + rng.NextBelow(48)) & mask;
        const auto it = model.find(at);
        if (it == model.end()) {
          join_at(at);
        } else if (it->second != u) {
          depart(it->second, rng.NextBelow(2) == 0);
        }
      };
      std::vector<NodeAddr> joiners;
      const auto joins = 2 + rng.NextBelow(4);
      for (std::uint64_t j = 0; j < joins; ++j) {
        if (rng.NextBelow(10) < 3) stray();
        const chord::Key id = (u_id + 1 + rng.NextBelow(width - 1)) & mask;
        if (model.count(id) != 0) continue;
        ++events;
        joiners.push_back(join_at(id));
      }
      if (rng.NextBelow(10) < 3) stray();
      if (!joiners.empty()) {
        const NodeAddr victim = joiners[rng.NextBelow(joiners.size())];
        if (ring.Contains(victim)) {
          ++events;
          depart(victim, /*crash=*/true);
        }
      }
      if (rng.NextBelow(10) < 3) stray();
      ++events;
      depart(u, /*crash=*/false);
      ASSERT_NO_FATAL_FAILURE(CheckChordOracle(ring, model, rng))
          << "seed " << seed << " round " << round;
      ring.StabilizeAll();
      ASSERT_NO_FATAL_FAILURE(CheckChordStructure(ring, model))
          << "seed " << seed << " round " << round << " of " << events;
      ASSERT_NO_FATAL_FAILURE(
          CheckChordLookups(ring, model, rng, /*converged=*/true))
          << "seed " << seed << " round " << round;
    }
  }
}

class ChordInvariants : public ::testing::TestWithParam<bool> {};

TEST_P(ChordInvariants, RandomizedChurnPreservesStructure) {
  RunChordChurn(GetParam(), /*stabilize_every=*/1);
}

// Joins and leaves next to a crashed, not-yet-repaired predecessor splice
// around its stale link instead of aborting.
TEST_P(ChordInvariants, LazyRepairChurnPreservesStructure) {
  RunChordChurn(GetParam(), /*stabilize_every=*/5);
}

TEST_P(ChordInvariants, BurstRepairMatchesFullRebuildOnSparseRing) {
  RunChordBursts(GetParam(), /*full_ring=*/false);
}

TEST_P(ChordInvariants, BurstRepairMatchesFullRebuildOnFullRing) {
  RunChordBursts(GetParam(), /*full_ring=*/true);
}

TEST_P(ChordInvariants, GapChurnRepairMatchesFullRebuild) {
  RunChordGapChurn(GetParam());
}

INSTANTIATE_TEST_SUITE_P(RouteCache, ChordInvariants, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "CacheOn" : "CacheOff";
                         });

// ---- Cycloid ---------------------------------------------------------------

/// cubical index -> (cyclic index -> addr); mirrors the overlay's oracle.
using CycloidModel = std::map<std::uint64_t, std::map<unsigned, NodeAddr>>;

NodeAddr BruteCycloidOwner(const CycloidModel& model, cycloid::CycloidId key) {
  auto c = model.lower_bound(key.a);
  if (c == model.end()) c = model.begin();
  auto n = c->second.lower_bound(key.k);
  if (n == c->second.end()) n = c->second.begin();
  return n->second;
}

std::size_t CycloidModelSize(const CycloidModel& model) {
  std::size_t total = 0;
  for (const auto& [a, cluster] : model) total += cluster.size();
  return total;
}

void CheckCycloidOracle(const cycloid::CycloidNetwork& net,
                        const CycloidModel& model, Rng& rng) {
  ASSERT_EQ(net.size(), CycloidModelSize(model));
  ASSERT_EQ(net.ClusterCount(), model.size());
  for (const auto& [a, cluster] : model) {
    for (const auto& [k, addr] : cluster) {
      ASSERT_TRUE(net.Contains(addr));
      const auto id = net.IdOf(addr);
      ASSERT_EQ(id.k, k);
      ASSERT_EQ(id.a, a);
    }
  }
  const unsigned d = net.dimension();
  for (int i = 0; i < 8; ++i) {
    const cycloid::CycloidId key{static_cast<unsigned>(rng.NextBelow(d)),
                                 rng.NextBelow(net.cluster_space())};
    ASSERT_EQ(net.OwnerOf(key), BruteCycloidOwner(model, key));
  }
}

/// Leaf-set symmetry: inside successor/predecessor realize each cluster's
/// cyclic order as inverse permutations. Holds after stabilization.
void CheckCycloidLeafSets(const cycloid::CycloidNetwork& net,
                          const CycloidModel& model) {
  for (const auto& [a, cluster] : model) {
    const auto members = net.ClusterMembersOf(a);
    ASSERT_EQ(members.size(), cluster.size());
    std::size_t i = 0;
    for (const auto& [k, addr] : cluster) {
      ASSERT_EQ(members[i++], addr) << "cluster order diverged at a=" << a;
    }
    for (std::size_t j = 0; j < members.size(); ++j) {
      const NodeAddr cur = members[j];
      const NodeAddr succ = members[(j + 1) % members.size()];
      ASSERT_EQ(net.InsideSuccessor(cur), succ);
      ASSERT_EQ(net.InsidePredecessor(succ), cur);
      ASSERT_TRUE(net.Owns(cur, net.IdOf(cur)));
    }
  }
}

void CheckCycloidLookups(const cycloid::CycloidNetwork& net,
                         const CycloidModel& model, Rng& rng,
                         bool require_ok) {
  const auto members = net.Members();
  const unsigned d = net.dimension();
  for (int i = 0; i < 6; ++i) {
    const cycloid::CycloidId key{static_cast<unsigned>(rng.NextBelow(d)),
                                 rng.NextBelow(net.cluster_space())};
    const NodeAddr origin = members[rng.NextBelow(members.size())];
    const auto res = net.Lookup(key, origin);
    if (require_ok) {
      ASSERT_TRUE(res.ok);
    }
    if (!res.ok) continue;  // pre-repair give-ups are legal; misroutes not
    ASSERT_EQ(res.owner, BruteCycloidOwner(model, key));
    ASSERT_EQ(res.path.front(), origin);
    ASSERT_EQ(res.path.back(), res.owner);
  }
}

class CycloidInvariants : public ::testing::TestWithParam<bool> {};

TEST_P(CycloidInvariants, RandomizedChurnPreservesStructure) {
  for (const std::uint64_t seed : {21ull, 22ull, 23ull}) {
    cycloid::Config cfg;
    cfg.dimension = 6;  // capacity 384
    cfg.seed = seed;
    cfg.route_cache = GetParam();
    auto net = cycloid::MakeCycloid(150, cfg);

    CycloidModel model;
    for (const NodeAddr addr : net.Members()) {
      const auto id = net.IdOf(addr);
      model[id.a][id.k] = addr;
    }

    Rng rng(seed * 6271);
    NodeAddr next_addr = 10'000;
    for (int step = 0; step < 80; ++step) {
      const auto op = rng.NextBelow(10);
      if ((op < 4 && net.size() < net.capacity()) || net.size() < 16) {
        const NodeAddr addr = next_addr++;
        const auto id = net.AddNode(addr);
        model[id.a][id.k] = addr;
      } else {
        const auto members = net.Members();
        const NodeAddr victim = members[rng.NextBelow(members.size())];
        const auto id = net.IdOf(victim);
        if (op < 7) {
          net.RemoveNode(victim);
        } else {
          net.FailNode(victim);
        }
        model[id.a].erase(id.k);
        if (model[id.a].empty()) model.erase(id.a);
      }
      ASSERT_NO_FATAL_FAILURE(CheckCycloidOracle(net, model, rng))
          << "seed " << seed << " step " << step;
      ASSERT_NO_FATAL_FAILURE(
          CheckCycloidLookups(net, model, rng, /*require_ok=*/false))
          << "seed " << seed << " step " << step;
      net.StabilizeAll();
      ASSERT_NO_FATAL_FAILURE(CheckCycloidLeafSets(net, model))
          << "seed " << seed << " step " << step;
      ASSERT_NO_FATAL_FAILURE(
          CheckCycloidLookups(net, model, rng, /*require_ok=*/true))
          << "seed " << seed << " step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RouteCache, CycloidInvariants, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "CacheOn" : "CacheOff";
                         });

// ---- Single-hop ------------------------------------------------------------

// Keys are chord::Key, so the single-hop model and brute-force owner are the
// Chord ones.

/// The defining invariant, after *every* step: each live node's full view is
/// exactly the live membership, in ring order starting from itself.
void CheckSingleHopFullViews(const singlehop::SingleHopRing& ring,
                             const ChordModel& model) {
  ASSERT_EQ(ring.size(), model.size());
  std::vector<NodeAddr> circle;  // model in ring (sorted-id) order
  circle.reserve(model.size());
  for (const auto& [id, addr] : model) circle.push_back(addr);
  std::size_t start = 0;
  for (const auto& [id, addr] : model) {
    const auto view = ring.FullViewOf(addr);
    ASSERT_EQ(view.size(), circle.size()) << "view of " << addr;
    for (std::size_t i = 0; i < view.size(); ++i) {
      ASSERT_EQ(view[i], circle[(start + i) % circle.size()])
          << "view of " << addr << " diverges at offset " << i;
    }
    ++start;  // model iterates in the same sorted-id order as `circle`
  }
}

void CheckSingleHopOracle(const singlehop::SingleHopRing& ring,
                          const ChordModel& model, Rng& rng) {
  ASSERT_EQ(ring.size(), model.size());
  for (const auto& [id, addr] : model) {
    ASSERT_TRUE(ring.Contains(addr));
    ASSERT_EQ(ring.IdOf(addr), id);
  }
  for (int i = 0; i < 8; ++i) {
    const singlehop::Key key = rng.NextBelow(ring.space());
    ASSERT_EQ(ring.OwnerOf(key), BruteChordOwner(model, key));
  }
}

/// Lookups resolve correctly after *every* step — a full table has no
/// pre-repair failure mode — and never spend more than one hop.
void CheckSingleHopLookups(const singlehop::SingleHopRing& ring,
                           const ChordModel& model, Rng& rng) {
  const auto members = ring.Members();
  for (int i = 0; i < 6; ++i) {
    const singlehop::Key key = rng.NextBelow(ring.space());
    const NodeAddr origin = members[rng.NextBelow(members.size())];
    const auto res = ring.Lookup(key, origin);
    ASSERT_TRUE(res.ok);
    ASSERT_EQ(res.owner, BruteChordOwner(model, key));
    ASSERT_LE(res.hops, 1u);
    ASSERT_EQ(res.hops == 0, origin == res.owner);
    ASSERT_EQ(res.path.front(), origin);
    ASSERT_EQ(res.path.back(), res.owner);
    ASSERT_EQ(res.path.size(), res.hops + 1u);
  }
}

/// Neighbor-link structure after stabilization: the spliced successor/
/// predecessor circle is the sorted ID circle (what the range walks chase).
void CheckSingleHopStructure(const singlehop::SingleHopRing& ring,
                             const ChordModel& model) {
  ASSERT_TRUE(ring.LinksFresh());
  std::vector<std::pair<singlehop::Key, NodeAddr>> sorted(model.begin(),
                                                          model.end());
  const std::size_t n = sorted.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto [id, addr] = sorted[i];
    ASSERT_EQ(ring.Successor(addr), sorted[(i + 1) % n].second);
    ASSERT_EQ(ring.Predecessor(addr), sorted[(i + n - 1) % n].second);
    ASSERT_TRUE(ring.Owns(addr, id));
    if (n > 1) {
      ASSERT_FALSE(ring.Owns(addr, (id + 1) & (ring.space() - 1)));
    }
    ASSERT_EQ(ring.Outlinks(addr), n - 1);
  }
}

TEST(SingleHopInvariants, RandomizedChurnPreservesFullViews) {
  for (const std::uint64_t seed : {31ull, 32ull, 33ull}) {
    singlehop::Config cfg;
    cfg.bits = 14;
    cfg.seed = seed;
    auto ring = chord::MakeRing<singlehop::SingleHopRing>(
        96, cfg, /*deterministic_ids=*/false);

    ChordModel model;
    for (const NodeAddr addr : ring.Members()) model[ring.IdOf(addr)] = addr;

    Rng rng(seed * 9349);
    NodeAddr next_addr = 10'000;
    for (int step = 0; step < 80; ++step) {
      const auto op = rng.NextBelow(10);
      if (op < 4 || ring.size() < 16) {
        const NodeAddr addr = next_addr++;
        const singlehop::Key id = ring.AddNode(addr);
        model[id] = addr;
      } else {
        const auto members = ring.Members();
        const NodeAddr victim = members[rng.NextBelow(members.size())];
        if (op < 7) {
          ring.RemoveNode(victim);
        } else {
          ring.FailNode(victim);
        }
        for (auto it = model.begin(); it != model.end(); ++it) {
          if (it->second == victim) {
            model.erase(it);
            break;
          }
        }
      }
      ASSERT_NO_FATAL_FAILURE(CheckSingleHopFullViews(ring, model))
          << "seed " << seed << " step " << step;
      ASSERT_NO_FATAL_FAILURE(CheckSingleHopOracle(ring, model, rng))
          << "seed " << seed << " step " << step;
      ASSERT_NO_FATAL_FAILURE(CheckSingleHopLookups(ring, model, rng))
          << "seed " << seed << " step " << step;
      ring.StabilizeAll();
      ASSERT_NO_FATAL_FAILURE(CheckSingleHopStructure(ring, model))
          << "seed " << seed << " step " << step;
      ASSERT_NO_FATAL_FAILURE(CheckSingleHopLookups(ring, model, rng))
          << "seed " << seed << " step " << step;
    }
  }
}

}  // namespace
}  // namespace lorm
