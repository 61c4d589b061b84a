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
//   * Chord's successor/predecessor ring is exactly the sorted ID circle
//     and every finger i points to OwnerOf(id + 2^i);
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
                         const ChordModel& model, Rng& rng) {
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
  // Finger invariant on a sample of nodes: entry i targets the owner of
  // id + 2^i (FingersOf reports raw table order).
  for (int s = 0; s < 6; ++s) {
    const auto [id, addr] = sorted[rng.NextBelow(n)];
    const auto fingers = ring.FingersOf(addr);
    ASSERT_EQ(fingers.size(), ring.bits());
    for (unsigned i = 0; i < ring.bits(); ++i) {
      const chord::Key start = (id + (chord::Key{1} << i)) & (ring.space() - 1);
      ASSERT_EQ(fingers[i], ring.OwnerOf(start))
          << "finger " << i << " of node " << addr << " is stale";
    }
  }
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
      ASSERT_NO_FATAL_FAILURE(CheckChordStructure(ring, model, rng))
          << "seed " << seed << " step " << step;
      ASSERT_NO_FATAL_FAILURE(
          CheckChordLookups(ring, model, rng, /*converged=*/true))
          << "seed " << seed << " step " << step;
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
    auto ring =
        singlehop::MakeSingleHopRing(96, cfg, /*deterministic_ids=*/false);

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
