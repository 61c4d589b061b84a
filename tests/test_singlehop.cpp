// Single-hop substrate + D1HT conformance suite.
//
// The fifth system claims *equivalence with the other four on semantics*
// while sitting at the opposite end of the maintenance/lookup tradeoff.
// This file pins both halves of that claim:
//
//   * semantics — D1HT's QueryResult equals the brute-force oracle (and
//     therefore every other system's answer) on the quick fig4a/fig5a
//     workloads, planner on or off, replicated or not, before and after
//     crashes;
//   * cost model — every lookup resolves in at most one hop (mean <= 1.05
//     at the paper's n = 2048), joins/leaves/crash-repair charge Θ(n)
//     maintenance messages where Chord charges Θ(log n);
//   * engine contract — the resumable lookup state machine is
//     byte-identical through the batch engine at widths 1/8/32;
//   * placement — both rings' joiners take chord::HashedId's id against
//     the taken ids, on full and sparse rings alike;
//   * shared core — both rings reject the same identifier spaces and
//     answer the oracle's owner of a key by the same rule, empty or not;
//   * registry — a sixth system can be registered without touching the
//     harness, and the canonical five are unperturbed.
#include "singlehop/singlehop.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/random.hpp"
#include "discovery/d1ht_service.hpp"
#include "harness/batch_lookup.hpp"
#include "service_test_util.hpp"

namespace lorm {
namespace {

using harness::SystemKind;
using resource::AttrValue;
using resource::MultiQuery;
using resource::RangeStyle;
using harness::BruteForceProviders;
using testutil::MakeBed;

// ---- Ring cost model -------------------------------------------------------

TEST(SingleHopRing, EveryLookupResolvesInAtMostOneHop) {
  // The paper-scale acceptance bound: mean hops/query <= 1.05 at n = 2048.
  singlehop::Config cfg;
  cfg.bits = 12;
  auto ring = chord::MakeRing<singlehop::SingleHopRing>(
      2048, cfg, /*deterministic_ids=*/true);
  Rng rng(0xD1A7ull);
  const auto members = ring.Members();
  std::uint64_t total_hops = 0;
  const int lookups = 4000;
  for (int i = 0; i < lookups; ++i) {
    const auto res = ring.Lookup(rng.NextBelow(ring.space()),
                                 members[rng.NextBelow(members.size())]);
    ASSERT_TRUE(res.ok);
    ASSERT_LE(res.hops, 1u);
    ASSERT_EQ(res.owner, ring.OwnerOf(res.key));
    total_hops += res.hops;
  }
  const double mean = static_cast<double>(total_hops) / lookups;
  EXPECT_LE(mean, 1.05);
  EXPECT_GT(mean, 0.9);  // owning the key yourself is a 1/n event
}

TEST(SingleHopRing, MembershipEventsChargeLinearMessages) {
  singlehop::Config cfg;
  cfg.bits = 12;
  auto ring = chord::MakeRing<singlehop::SingleHopRing>(
      256, cfg, /*deterministic_ids=*/true);
  ring.ResetMaintenanceStats();

  // Join: bootstrap (2) + one event report per existing member.
  ring.AddNode(10'000);
  EXPECT_EQ(ring.maintenance().join_messages, 256u + 2u);

  // Graceful leave: one report per surviving member + the goodbye.
  ring.RemoveNode(10'000);
  EXPECT_EQ(ring.maintenance().leave_messages, 256u + 1u);

  // Crash: free at crash time; the next maintenance round pays one
  // dissemination report per member per pending event plus the heartbeat
  // sweep.
  const auto members = ring.Members();
  ring.FailNode(members[3]);
  ring.FailNode(members[7]);
  EXPECT_EQ(ring.maintenance().stabilize_messages, 0u);
  EXPECT_FALSE(ring.LinksFresh());
  ring.StabilizeAll();
  EXPECT_EQ(ring.maintenance().stabilize_messages, 2u * 254u + 254u);
  EXPECT_TRUE(ring.LinksFresh());

  // The byte meter is a fixed multiple of the message meter.
  discovery::D1htService::Config dcfg;
  dcfg.ring.bits = 9;
  resource::Workload workload(harness::Setup::Small().MakeWorkloadConfig());
  discovery::D1htService svc(64, workload.registry(), dcfg);
  EXPECT_EQ(svc.MaintenanceBytes(),
            svc.MaintenanceMessages() *
                discovery::DiscoveryService::kMaintenanceMessageBytes);
}

// ---- Bulk build and the shared membership oracle ---------------------------

// chord::MakeRing builds through BulkAssign; the result must be the ring
// that n sequential joins plus one maintenance window converge to, in both
// ID modes (hashed mode replays AddNode's collision salting), minus the
// join bill.
class SingleHopBulkBuild : public ::testing::TestWithParam<bool> {};

TEST_P(SingleHopBulkBuild, MatchesSequentialJoinsPlusStabilize) {
  const bool deterministic = GetParam();
  singlehop::Config cfg;
  cfg.bits = deterministic ? 9 : 12;
  cfg.seed = 0xB01Cu;
  const std::size_t n = 300;
  const auto bulk =
      chord::MakeRing<singlehop::SingleHopRing>(n, cfg, deterministic);

  singlehop::SingleHopRing seq(cfg);
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
    EXPECT_EQ(bulk.FullViewOf(addr), seq.FullViewOf(addr));
  }
  Rng rng(7);
  singlehop::LookupResult a;
  singlehop::LookupResult b;
  for (int i = 0; i < 500; ++i) {
    const singlehop::Key key = rng.NextBelow(bulk.space());
    const auto origin = static_cast<NodeAddr>(rng.NextBelow(n));
    ASSERT_EQ(bulk.Owns(origin, key), seq.Owns(origin, key));
    bulk.LookupInto(key, origin, a);
    seq.LookupInto(key, origin, b);
    ASSERT_EQ(a.ok, b.ok);
    ASSERT_EQ(a.owner, b.owner);
    ASSERT_EQ(a.hops, b.hops);
    ASSERT_EQ(a.path, b.path);
  }
  EXPECT_EQ(bulk.maintenance().stabilize_messages,
            seq.maintenance().stabilize_messages);
  EXPECT_EQ(bulk.maintenance().join_messages, 0u);
  EXPECT_GT(seq.maintenance().join_messages, 0u);
}

INSTANTIATE_TEST_SUITE_P(IdModes, SingleHopBulkBuild, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Deterministic" : "Hashed";
                         });

// Chord and the single-hop ring share one membership oracle. Both rings,
// built from the same chord::InitialIds in an 8-bit space, must answer the
// owner and replica-placement walks exactly as a brute-force scan of the
// sorted member list does.
using SortedMembers = std::vector<std::pair<chord::Key, NodeAddr>>;

NodeAddr ModelOwner(const SortedMembers& members, chord::Key key,
                    NodeAddr excluded) {
  for (const auto& [id, addr] : members) {
    if (id >= key && addr != excluded) return addr;
  }
  for (const auto& [id, addr] : members) {
    if (addr != excluded) return addr;
  }
  return kNoNode;
}

// One revolution clockwise (or counterclockwise) from `from`, ending on
// `from` itself, minus `excluded`; the walk stops at the last survivor.
NodeAddr ModelNth(const SortedMembers& members, std::size_t from,
                  std::size_t steps, NodeAddr excluded, bool clockwise) {
  const std::size_t n = members.size();
  std::vector<NodeAddr> lap;
  for (std::size_t i = 1; i <= n; ++i) {
    const std::size_t at = clockwise ? (from + i) % n : (from + n - i) % n;
    if (members[at].second != excluded) lap.push_back(members[at].second);
  }
  if (steps == 0 || lap.empty()) return members[from].second;
  return lap[std::min(steps, lap.size()) - 1];
}

template <typename Ring>
void CheckOracleWalks(const Ring& ring, const SortedMembers& members) {
  const NodeAddr stranger = 9999;
  ASSERT_FALSE(ring.Contains(stranger));
  for (chord::Key key = 0; key < 256; ++key) {
    const NodeAddr owner = ModelOwner(members, key, kNoNode);
    ASSERT_EQ(ring.OwnerOf(key), owner) << "key " << key;
    for (const NodeAddr excluded : {kNoNode, owner, stranger}) {
      ASSERT_EQ(ring.OwnerOfExcluding(key, excluded),
                ModelOwner(members, key, excluded))
          << "key " << key << " excluding " << excluded;
    }
  }
  const std::size_t n = members.size();
  for (std::size_t i = 0; i < n; ++i) {
    const NodeAddr self = members[i].second;
    const NodeAddr succ = members[(i + 1) % n].second;
    for (const NodeAddr excluded : {kNoNode, self, succ}) {
      for (std::size_t steps = 0; steps <= n + 1; ++steps) {
        ASSERT_EQ(ring.NthOracleSuccessor(self, steps, excluded),
                  ModelNth(members, i, steps, excluded, true))
            << "node " << self << " steps " << steps << " excl " << excluded;
        ASSERT_EQ(ring.NthOraclePredecessor(self, steps, excluded),
                  ModelNth(members, i, steps, excluded, false))
            << "node " << self << " steps " << steps << " excl " << excluded;
      }
    }
  }
}

class SharedOracle : public ::testing::TestWithParam<bool> {};

TEST_P(SharedOracle, WalksMatchBruteForceOnBothRings) {
  const bool deterministic = GetParam();
  for (const std::size_t n : {std::size_t{40}, std::size_t{1}}) {
    SCOPED_TRACE(n);
    const auto ids = chord::InitialIds(n, /*bits=*/8, /*seed=*/0x0AC1Eu,
                                       deterministic, /*base_addr=*/100);
    SortedMembers members;
    for (const auto& [addr, id] : ids) members.push_back({id, addr});
    std::sort(members.begin(), members.end());

    chord::Config ccfg;
    ccfg.bits = 8;
    chord::ChordRing chord_ring(ccfg);
    chord_ring.BulkAssign(ids);
    singlehop::Config scfg;
    scfg.bits = 8;
    singlehop::SingleHopRing single(scfg);
    single.BulkAssign(ids);
    for (const auto& [addr, id] : ids) {
      ASSERT_EQ(chord_ring.IdOf(addr), id);
      ASSERT_EQ(single.IdOf(addr), id);
    }
    {
      SCOPED_TRACE("chord");
      CheckOracleWalks(chord_ring, members);
    }
    {
      SCOPED_TRACE("single-hop");
      CheckOracleWalks(single, members);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(IdModes, SharedOracle, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Deterministic" : "Hashed";
                         });

// Both rings take their identifier space and the oracle's owner rule from
// chord::KeyedRing, so each case below holds on both alike.
template <typename Ring>
class KeyedRingCore : public ::testing::Test {};

using ChordKeyedRings =
    ::testing::Types<chord::ChordRing, singlehop::SingleHopRing>;
TYPED_TEST_SUITE(KeyedRingCore, ChordKeyedRings);

TYPED_TEST(KeyedRingCore, BitsOutsideOneTo63AreConfigErrors) {
  typename TypeParam::Config bad;
  bad.bits = 0;
  EXPECT_THROW(TypeParam ring(bad), ConfigError);
  bad.bits = 64;
  EXPECT_THROW(TypeParam ring(bad), ConfigError);
}

// No member owns anything: OwnerOf answers kNoNode, as OwnerOfExcluding
// does.
TYPED_TEST(KeyedRingCore, EmptyRingOwnerIsNoNode) {
  typename TypeParam::Config cfg;
  cfg.bits = 8;
  const TypeParam ring(cfg);
  for (const chord::Key key : {chord::Key{0}, chord::Key{77}, chord::Key{255},
                               chord::Key{256 + 77}}) {
    EXPECT_EQ(ring.OwnerOf(key), kNoNode) << "key " << key;
    EXPECT_EQ(ring.OwnerOfExcluding(key, kNoNode), kNoNode) << "key " << key;
  }
}

// Both owner queries fold a key into the 2^bits space first, as a lookup
// does: key + j * 2^bits has key's owner.
TYPED_TEST(KeyedRingCore, OwnersFoldKeysIntoTheSpace) {
  typename TypeParam::Config cfg;
  cfg.bits = 8;
  TypeParam ring(cfg);
  ring.AddNodeWithId(1, 10);
  ring.AddNodeWithId(2, 200);
  for (chord::Key key = 0; key < 256; ++key) {
    const NodeAddr owner = ring.OwnerOf(key);
    ASSERT_EQ(owner, key > 10 && key <= 200 ? 2u : 1u) << "key " << key;
    for (const chord::Key lap : {chord::Key{1}, chord::Key{5}}) {
      const chord::Key far = key + lap * 256;
      ASSERT_EQ(ring.OwnerOf(far), owner) << "key " << far;
      ASSERT_EQ(ring.OwnerOfExcluding(far, kNoNode), owner) << "key " << far;
      ASSERT_EQ(ring.OwnerOfExcluding(far, owner), 3 - owner) << "key " << far;
    }
  }
}

// Both rings place a joiner with chord::JoinerId, which answers HashedId's
// draws from a bitmap of the taken ids on a nearly full ring and from the
// oracle otherwise. Either way the id must be HashedId's against an
// independent model of the taken ids. Removes `removed` members (leaves and
// crashes), joins as many new addresses, and, once the ring is full again,
// expects the next join to be refused.
template <typename Ring>
void CheckJoinerIds(Ring ring, std::size_t removed) {
  const unsigned bits = ring.bits();
  const std::uint64_t seed = ring.config().seed;
  std::set<chord::Key> taken;
  auto members = ring.Members();
  for (const NodeAddr addr : members) taken.insert(ring.IdOf(addr));
  Rng rng(seed);
  for (std::size_t k = 0; k < removed; ++k) {
    const std::size_t at = rng.NextBelow(members.size());
    const NodeAddr victim = members[at];
    members.erase(members.begin() + static_cast<std::ptrdiff_t>(at));
    taken.erase(ring.IdOf(victim));
    if (k % 2 == 0) {
      ring.RemoveNode(victim);
    } else {
      ring.FailNode(victim);
    }
  }
  for (std::size_t k = 0; k < removed; ++k) {
    const NodeAddr addr = static_cast<NodeAddr>(50'000 + k);
    const chord::Key want = chord::HashedId(
        addr, bits, seed, [&](chord::Key id) { return taken.count(id) != 0; });
    ASSERT_EQ(ring.AddNode(addr), want) << "joiner " << k;
    taken.insert(want);
  }
  if (taken.size() == ring.space()) {
    EXPECT_THROW(ring.AddNode(99'999), ConfigError);
  }
}

TEST(JoinerIds, FullRingJoinersTakeTheHashedFreeIds) {
  for (const std::size_t removed : {std::size_t{12}, std::size_t{40}}) {
    SCOPED_TRACE(removed);
    chord::Config ccfg;
    ccfg.bits = 8;
    CheckJoinerIds(chord::MakeRing(256, ccfg, /*deterministic_ids=*/true),
                   removed);
    singlehop::Config scfg;
    scfg.bits = 8;
    CheckJoinerIds(chord::MakeRing<singlehop::SingleHopRing>(
                       256, scfg, /*deterministic_ids=*/true),
                   removed);
  }
}

TEST(JoinerIds, SparseRingJoinersTakeTheHashedIds) {
  chord::Config ccfg;
  ccfg.bits = 24;
  CheckJoinerIds(chord::MakeRing(500, ccfg, /*deterministic_ids=*/false), 20);
  singlehop::Config scfg;
  scfg.bits = 24;
  CheckJoinerIds(chord::MakeRing<singlehop::SingleHopRing>(
                     500, scfg, /*deterministic_ids=*/false),
                 20);
}

// ---- D1HT service semantics ------------------------------------------------

TEST(D1htStructure, StoresEveryTupleTwiceLikeMaan) {
  auto bed = MakeBed(SystemKind::kD1ht);
  EXPECT_EQ(bed.service->TotalInfoPieces(), 2 * bed.infos.size());
}

TEST(D1htQuery, PointQueryCostsTwoOneHopLookupsPerAttribute) {
  auto bed = MakeBed(SystemKind::kD1ht);
  Rng rng(1);
  const auto q = bed.workload->MakePointQuery(3, 0, rng);
  const auto res = bed.service->Query(q);
  EXPECT_EQ(res.stats.lookups, 6u);        // MAAN's dual placement
  EXPECT_EQ(res.stats.visited_nodes, 6u);  // attribute root + value root
  EXPECT_LE(res.stats.dht_hops, 6u);       // ...but every lookup is <= 1 hop
}

/// QueryResult equality vs the brute-force oracle on the exact quick-mode
/// fig4a (point) and fig5a (bounded-range) workloads: Setup::Quick, seeds
/// 0xF16u + attrs, attribute counts {1, 3, 5}.
class D1htFigureConformance : public ::testing::TestWithParam<bool> {};

TEST_P(D1htFigureConformance, MatchesBruteForceOnQuickFigureWorkloads) {
  const bool range = GetParam();
  auto bed = MakeBed(SystemKind::kD1ht, harness::Setup::Quick());
  for (const std::size_t attrs : {std::size_t{1}, std::size_t{3},
                                  std::size_t{5}}) {
    Rng rng(0xF16u + attrs);
    for (int i = 0; i < 20; ++i) {
      const NodeAddr req =
          static_cast<NodeAddr>(rng.NextBelow(bed.setup.nodes));
      const MultiQuery q =
          range ? bed.workload->MakeRangeQuery(attrs, req,
                                               RangeStyle::kBounded, rng)
                : bed.workload->MakePointQuery(attrs, req, rng);
      const auto res = bed.service->Query(q);
      ASSERT_FALSE(res.stats.failed);
      ASSERT_EQ(res.providers, BruteForceProviders(bed.infos, q, *bed.service))
          << (range ? "fig5a" : "fig4a") << " attrs=" << attrs << " q=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fig4aFig5a, D1htFigureConformance, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Fig5aRange" : "Fig4aPoint";
                         });

TEST(D1htQuery, PlannerIsAPureExecutionOrderOptimization) {
  auto setup_off = harness::Setup::Small();
  setup_off.plan = false;
  auto setup_on = setup_off;
  setup_on.plan = true;
  auto off = MakeBed(SystemKind::kD1ht, setup_off);
  auto on = MakeBed(SystemKind::kD1ht, setup_on);
  Rng rng(0x9A7FD1ull);
  for (int i = 0; i < 40; ++i) {
    const NodeAddr req = static_cast<NodeAddr>(rng.NextBelow(setup_off.nodes));
    const auto q = off.workload->MakeRangeQuery(1 + rng.NextBelow(4), req,
                                                RangeStyle::kBounded, rng);
    ASSERT_EQ(off.service->Query(q).providers, on.service->Query(q).providers)
        << "planner changed the answer at query " << i;
  }
}

// ---- Replication under crashes ---------------------------------------------

/// r = 3 must strictly beat r = 1 on recall after simultaneous crashes, and
/// a single crash at r = 3 must lose nothing at all.
TEST(D1htReplication, ReplicasRestoreRecallUnderCrashes) {
  double recall[4] = {};  // [r]
  for (const std::size_t r : {std::size_t{1}, std::size_t{3}}) {
    auto setup = harness::Setup::Small();
    setup.replicas = r;
    auto bed = MakeBed(SystemKind::kD1ht, setup);
    Rng rng(0xFA11D1ull);
    // Crash 20% of the members at once, then measure recall against the
    // surviving ground truth with no re-advertisement.
    auto members = bed.service->Nodes();
    for (std::size_t i = 0; i < members.size() / 5; ++i) {
      bed.service->FailNode(members[i * 5]);
    }
    bed.service->Maintain();
    // Single-attribute upper-bounded ranges with the bound drawn from the
    // value distribution: multi-attribute intersections and uniform bounded
    // ranges are mostly empty on the Small workload (its values concentrate
    // near the domain floor), which would make recall vacuous.
    double hit = 0, want = 0;
    for (int i = 0; i < 40; ++i) {
      const auto nodes = bed.service->Nodes();
      const auto q = bed.workload->MakeRangeQuery(
          1, nodes[rng.NextBelow(nodes.size())], RangeStyle::kUpperBounded,
          rng);
      const auto res = bed.service->Query(q);
      const auto truth = BruteForceProviders(bed.infos, q, *bed.service);
      for (const NodeAddr p : res.providers) {
        hit += std::binary_search(truth.begin(), truth.end(), p) ? 1.0 : 0.0;
      }
      want += static_cast<double>(truth.size());
    }
    ASSERT_GT(want, 0.0) << "ground truth is empty at r=" << r;
    recall[r] = hit / want;
  }
  EXPECT_GT(recall[3], recall[1]);
  EXPECT_GT(recall[3], 0.95);

  // Single crash at r = 3: the surviving replicas cover everything.
  auto setup = harness::Setup::Small();
  setup.replicas = 3;
  auto bed = MakeBed(SystemKind::kD1ht, setup);
  bed.service->FailNode(bed.service->Nodes()[17]);
  bed.service->Maintain();
  Rng rng(0x51A61Eull);
  for (int i = 0; i < 25; ++i) {
    const auto nodes = bed.service->Nodes();
    const auto q = bed.workload->MakeRangeQuery(
        2, nodes[rng.NextBelow(nodes.size())], RangeStyle::kBounded, rng);
    ASSERT_EQ(bed.service->Query(q).providers,
              BruteForceProviders(bed.infos, q, *bed.service));
  }
}

// ---- Batch-engine byte-identity --------------------------------------------

std::string LookupResultsSerialized(
    const singlehop::SingleHopRing& ring,
    const std::vector<harness::BatchLookupEngine<
        singlehop::SingleHopRing>::Request>& reqs,
    std::size_t batch) {
  std::ostringstream out;
  auto emit = [&out](std::size_t i, const singlehop::LookupResult& r) {
    out << i << ":ok=" << r.ok << ",key=" << r.key << ",owner=" << r.owner
        << ",hops=" << r.hops << ",cache=" << r.cache_hits << ",path=";
    for (const NodeAddr a : r.path) out << a << ";";
    out << "\n";
  };
  if (batch == 0) {  // sequential reference replay
    singlehop::LookupResult res;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      ring.LookupInto(reqs[i].key, reqs[i].origin, res);
      emit(i, res);
    }
  } else {
    harness::BatchLookupEngine<singlehop::SingleHopRing> engine(batch);
    engine.Run(ring, reqs.data(), reqs.size(), emit);
  }
  return out.str();
}

TEST(SingleHopBatch, LookupEngineIsByteIdenticalAtAnyWidth) {
  singlehop::Config cfg;
  cfg.bits = 10;
  const auto ring = chord::MakeRing<singlehop::SingleHopRing>(
      384, cfg, /*deterministic_ids=*/true);
  Rng rng(0xBA7C41ull);
  std::vector<harness::BatchLookupEngine<singlehop::SingleHopRing>::Request>
      reqs(257);
  for (auto& r : reqs) {
    r.key = rng.NextBelow(ring.space());
    r.origin = static_cast<NodeAddr>(rng.NextBelow(384));
  }
  const std::string sequential = LookupResultsSerialized(ring, reqs, 0);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{8},
                                  std::size_t{32}}) {
    EXPECT_EQ(LookupResultsSerialized(ring, reqs, batch), sequential)
        << "batch width " << batch;
  }
}

// ---- System registry -------------------------------------------------------

TEST(SystemRegistry, SixthSystemRegistersWithoutTouchingTheHarness) {
  const auto kDummy = static_cast<SystemKind>(60);
  ASSERT_FALSE(harness::SystemRegistered(kDummy));
  harness::RegisterSystem(
      kDummy, "Dummy6",
      [](const harness::Setup& setup,
         const resource::AttributeRegistry& registry)
          -> std::unique_ptr<discovery::DiscoveryService> {
        discovery::D1htService::Config cfg;
        cfg.ring.bits = setup.chord_bits;
        cfg.ring.seed = setup.seed;
        return std::make_unique<discovery::D1htService>(setup.nodes, registry,
                                                        cfg);
      });
  EXPECT_TRUE(harness::SystemRegistered(kDummy));
  EXPECT_STREQ(harness::SystemName(kDummy), "Dummy6");

  // Canonical five untouched; the registry lists the extra kind last.
  const auto all = harness::AllSystems();
  EXPECT_EQ(all.size(), 5u);
  EXPECT_EQ(all.back(), SystemKind::kD1ht);
  const auto registered = harness::RegisteredSystems();
  EXPECT_EQ(registered.size(), 6u);
  EXPECT_EQ(registered.back(), kDummy);

  // MakeService resolves through the registry and builds a working system.
  const auto setup = harness::Setup::Small();
  resource::Workload workload(setup.MakeWorkloadConfig());
  const auto svc = harness::MakeService(kDummy, setup, workload.registry());
  EXPECT_EQ(svc->NetworkSize(), setup.nodes);
  EXPECT_EQ(svc->name(), "D1HT");  // the dummy reuses the D1HT service class
}

}  // namespace
}  // namespace lorm
