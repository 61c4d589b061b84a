// The batch lookup engine's contract: Run() is byte-identical to looking the
// same requests up sequentially with LookupInto, in submission order — for
// every walk, every system's overlay, every batch width, cache off and on.
// The workloads here are the quick fig4a/fig5a populations (Setup::Quick's
// advertised tuples routed through each service's real key derivation), so
// the walks exercised are exactly the ones the figure benches time. The
// scheduler under the engine, RouteLanes, is also driven directly, in the
// forms the engine and the query executor use, over several rings at once.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "common/ring_route.hpp"
#include "discovery/lorm_service.hpp"
#include "discovery/maan_service.hpp"
#include "discovery/mercury_service.hpp"
#include "discovery/sword_service.hpp"
#include "harness/batch_lookup.hpp"
#include "service_test_util.hpp"

namespace lorm {
namespace {

using harness::BatchLookupEngine;
using harness::SystemKind;

constexpr std::size_t kBatches[] = {1, 8, 32};
constexpr std::size_t kMaxRequests = 600;

/// Runs `reqs` sequentially via LookupInto and through the engine at width
/// `batch`, and asserts every observable of every result matches.
template <typename Ring>
void ExpectBatchMatchesSequential(
    const Ring& sequential_ring, const Ring& batch_ring,
    const std::vector<typename BatchLookupEngine<Ring>::Request>& reqs,
    std::size_t batch) {
  std::vector<typename Ring::LookupResult> expected(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    sequential_ring.LookupInto(reqs[i].key, reqs[i].origin, expected[i]);
  }

  BatchLookupEngine<Ring> engine(batch);
  std::size_t seen = 0;
  engine.Run(batch_ring, reqs.data(), reqs.size(),
             [&](std::size_t index, const typename Ring::LookupResult& r) {
               ASSERT_EQ(index, seen) << "retirement out of submission order";
               ++seen;
               const auto& e = expected[index];
               EXPECT_EQ(r.ok, e.ok) << "walk " << index;
               EXPECT_EQ(r.key, e.key) << "walk " << index;
               EXPECT_EQ(r.owner, e.owner) << "walk " << index;
               EXPECT_EQ(r.hops, e.hops) << "walk " << index;
               EXPECT_EQ(r.path, e.path) << "walk " << index;
               EXPECT_EQ(r.cache_hits, e.cache_hits) << "walk " << index;
             });
  EXPECT_EQ(seen, reqs.size());
}

/// Builds the quick-figure workload for `kind` and returns the advertised
/// tuples each system derives its lookup keys from.
testutil::Bed MakeQuickBed(SystemKind kind, bool cache) {
  harness::Setup setup = harness::Setup::Quick();
  setup.cache = cache;
  return testutil::MakeBed(kind, setup);
}

NodeAddr OriginFor(const testutil::Bed& bed, std::size_t i) {
  // A fixed stride walks requesters over the whole membership, decoupled
  // from the provider that advertised the tuple being looked up.
  return static_cast<NodeAddr>((i * 131 + 17) % bed.setup.nodes);
}

// ---- LORM: Cycloid overlay, one key per advertised (attr, value) ----------

std::vector<BatchLookupEngine<cycloid::CycloidNetwork>::Request> LormRequests(
    const testutil::Bed& bed, const discovery::LormService& svc) {
  std::vector<BatchLookupEngine<cycloid::CycloidNetwork>::Request> reqs;
  for (std::size_t i = 0; i < bed.infos.size() && reqs.size() < kMaxRequests;
       i += 3) {
    const auto& info = bed.infos[i];
    reqs.push_back({svc.KeyFor(info.attr, info.value), OriginFor(bed, i)});
  }
  return reqs;
}

TEST(BatchLookup, LormCycloidMatchesSequential) {
  for (bool cache : {false, true}) {
    // Cache-on walks teach the route cache, so the sequential baseline and
    // the engine must each run against their own identically-built overlay.
    auto bed_a = MakeQuickBed(SystemKind::kLorm, cache);
    auto bed_b = MakeQuickBed(SystemKind::kLorm, cache);
    const auto* svc =
        dynamic_cast<const discovery::LormService*>(bed_a.service.get());
    ASSERT_NE(svc, nullptr);
    const auto* svc_b =
        dynamic_cast<const discovery::LormService*>(bed_b.service.get());
    ASSERT_NE(svc_b, nullptr);
    const auto reqs = LormRequests(bed_a, *svc);
    ASSERT_FALSE(reqs.empty());
    for (std::size_t batch : kBatches) {
      ExpectBatchMatchesSequential(svc->overlay(), svc_b->overlay(), reqs,
                                   batch);
    }
  }
}

// ---- Mercury: one Chord hub per attribute --------------------------------

TEST(BatchLookup, MercuryHubsMatchSequential) {
  for (bool cache : {false, true}) {
    auto bed_a = MakeQuickBed(SystemKind::kMercury, cache);
    auto bed_b = MakeQuickBed(SystemKind::kMercury, cache);
    const auto* svc =
        dynamic_cast<const discovery::MercuryService*>(bed_a.service.get());
    ASSERT_NE(svc, nullptr);
    const auto* svc_b =
        dynamic_cast<const discovery::MercuryService*>(bed_b.service.get());
    ASSERT_NE(svc_b, nullptr);

    // A lookup only ever runs inside one hub, so requests are grouped by
    // the attribute's hub; cover the first few hubs to keep this quick.
    for (AttrId attr = 0; attr < 4; ++attr) {
      std::vector<BatchLookupEngine<chord::ChordRing>::Request> reqs;
      for (std::size_t i = 0;
           i < bed_a.infos.size() && reqs.size() < kMaxRequests / 4; ++i) {
        const auto& info = bed_a.infos[i];
        if (info.attr != attr) continue;
        reqs.push_back({svc->KeyFor(info.attr, info.value),
                        OriginFor(bed_a, i)});
      }
      ASSERT_FALSE(reqs.empty());
      for (std::size_t batch : kBatches) {
        ExpectBatchMatchesSequential(svc->hub(attr), svc_b->hub(attr), reqs,
                                     batch);
      }
    }
  }
}

// ---- SWORD: single Chord ring, one key per attribute sub-query -----------

TEST(BatchLookup, SwordChordMatchesSequential) {
  for (bool cache : {false, true}) {
    auto bed_a = MakeQuickBed(SystemKind::kSword, cache);
    auto bed_b = MakeQuickBed(SystemKind::kSword, cache);
    const auto* svc =
        dynamic_cast<const discovery::SwordService*>(bed_a.service.get());
    ASSERT_NE(svc, nullptr);
    const auto* svc_b =
        dynamic_cast<const discovery::SwordService*>(bed_b.service.get());
    ASSERT_NE(svc_b, nullptr);
    std::vector<BatchLookupEngine<chord::ChordRing>::Request> reqs;
    for (std::size_t i = 0; i < bed_a.infos.size() && reqs.size() < kMaxRequests;
         ++i) {
      reqs.push_back({svc->KeyFor(bed_a.infos[i].attr), OriginFor(bed_a, i)});
    }
    ASSERT_FALSE(reqs.empty());
    for (std::size_t batch : kBatches) {
      ExpectBatchMatchesSequential(svc->overlay(), svc_b->overlay(), reqs,
                                   batch);
    }
  }
}

// ---- MAAN: single Chord ring, attribute keys + per-value keys ------------

TEST(BatchLookup, MaanChordMatchesSequential) {
  for (bool cache : {false, true}) {
    auto bed_a = MakeQuickBed(SystemKind::kMaan, cache);
    auto bed_b = MakeQuickBed(SystemKind::kMaan, cache);
    const auto* svc =
        dynamic_cast<const discovery::MaanService*>(bed_a.service.get());
    ASSERT_NE(svc, nullptr);
    const auto* svc_b =
        dynamic_cast<const discovery::MaanService*>(bed_b.service.get());
    ASSERT_NE(svc_b, nullptr);
    std::vector<BatchLookupEngine<chord::ChordRing>::Request> reqs;
    for (std::size_t i = 0; i < bed_a.infos.size() && reqs.size() < kMaxRequests;
         i += 2) {
      const auto& info = bed_a.infos[i];
      // MAAN routes both the attribute hash (locality-preserving band) and
      // the per-value hash; interleave the two key families.
      if (i % 4 == 0) {
        reqs.push_back({svc->AttributeKeyFor(info.attr), OriginFor(bed_a, i)});
      } else {
        reqs.push_back(
            {svc->ValueKeyFor(info.attr, info.value), OriginFor(bed_a, i)});
      }
    }
    ASSERT_FALSE(reqs.empty());
    for (std::size_t batch : kBatches) {
      ExpectBatchMatchesSequential(svc->overlay(), svc_b->overlay(), reqs,
                                   batch);
    }
  }
}

// ---- Engine edge cases ----------------------------------------------------

TEST(BatchLookup, HandlesEmptyAndShortBatches) {
  chord::Config cfg;
  cfg.bits = 12;
  auto ring = chord::MakeRing(64, cfg, /*deterministic_ids=*/false);
  const auto members = ring.Members();

  BatchLookupEngine<chord::ChordRing> engine(8);
  std::size_t calls = 0;
  engine.Run(ring, nullptr, 0, [&](std::size_t, const chord::LookupResult&) {
    ++calls;
  });
  EXPECT_EQ(calls, 0u);

  // Fewer requests than lanes: the engine must still retire all of them.
  std::vector<BatchLookupEngine<chord::ChordRing>::Request> reqs;
  for (std::size_t i = 0; i < 3; ++i) {
    reqs.push_back({ring.space() / (i + 2), members[i]});
  }
  ExpectBatchMatchesSequential(ring, ring, reqs, 8);
}

TEST(BatchLookup, MissingOriginStillRetiresInOrder) {
  chord::Config cfg;
  cfg.bits = 12;
  auto ring = chord::MakeRing(64, cfg, /*deterministic_ids=*/false);
  const auto members = ring.Members();

  std::vector<BatchLookupEngine<chord::ChordRing>::Request> reqs;
  reqs.push_back({ring.space() / 3, members[0]});
  reqs.push_back({ring.space() / 5, kNoNode});  // not a member: walk fails
  reqs.push_back({ring.space() / 7, members[1]});
  ExpectBatchMatchesSequential(ring, ring, reqs, 8);
}

// ---- RouteLanes, driven directly -------------------------------------------

TEST(RouteLanes, MixedRingsMatchLookupIntoInSubmissionOrder) {
  // Mercury's first four hubs interleave from lookup to lookup, so below
  // the lookup count a lane routes on several rings in turn, which neither
  // client does: the executor mixes rings in one pass but never reuses a
  // lane, and the engine reuses lanes on one ring.
  using Lane = RouteLane<chord::ChordRing>;
  auto bed = MakeQuickBed(SystemKind::kMercury, /*cache=*/false);
  const auto* svc =
      dynamic_cast<const discovery::MercuryService*>(bed.service.get());
  ASSERT_NE(svc, nullptr);
  std::vector<Lane> lookups;
  for (std::size_t i = 0; i < bed.infos.size() && lookups.size() < 40; ++i) {
    const auto& info = bed.infos[i];
    if (info.attr >= 4) continue;
    Lane l;
    l.ring = &svc->hub(info.attr);
    l.key = svc->KeyFor(info.attr, info.value);
    l.origin = OriginFor(bed, i);
    lookups.push_back(l);
  }
  ASSERT_EQ(lookups.size(), 40u);
  // An origin that is not a member completes its walk at LookupBegin: at
  // the head, in the middle and last.
  const auto stranger = static_cast<NodeAddr>(bed.setup.nodes + 7);
  ASSERT_FALSE(lookups[0].ring->Contains(stranger));
  for (const std::size_t i : {0, 20, 39}) lookups[i].origin = stranger;
  std::vector<chord::LookupResult> want(lookups.size());
  for (std::size_t i = 0; i < lookups.size(); ++i) {
    lookups[i].ring->LookupInto(lookups[i].key, lookups[i].origin, want[i]);
  }
  const auto expect_want = [&](std::size_t i, const chord::LookupResult& r) {
    EXPECT_EQ(r.ok, want[i].ok) << "lookup " << i;
    EXPECT_EQ(r.key, want[i].key) << "lookup " << i;
    EXPECT_EQ(r.owner, want[i].owner) << "lookup " << i;
    EXPECT_EQ(r.hops, want[i].hops) << "lookup " << i;
    EXPECT_EQ(r.path, want[i].path) << "lookup " << i;
    EXPECT_EQ(r.cache_hits, want[i].cache_hits) << "lookup " << i;
  };
  const auto none = [](std::size_t, Lane&) {};

  // The engine's form: lanes reused, each lookup named as it begins and
  // finished as it retires.
  for (const std::size_t width : {1, 3, 8}) {
    SCOPED_TRACE(::testing::Message() << "width " << width);
    std::vector<Lane> lanes(width);
    std::size_t retired = 0;
    RouteLanes(
        lanes.data(), width, lookups.size(),
        [&](std::size_t i, Lane& lane) {
          lane.ring = lookups[i].ring;
          lane.key = lookups[i].key;
          lane.origin = lookups[i].origin;
        },
        [&](std::size_t i, Lane& lane) {
          EXPECT_EQ(i, retired++) << "retired out of submission order";
          lane.ring->LookupFinish(lane.state);
          expect_want(i, lane.result);
        });
    EXPECT_EQ(retired, lookups.size());
  }

  // The executor's form: one named lane per lookup (count <= width), no
  // retire, and LookupFinish on each lane afterwards, in order.
  for (const std::size_t width : {lookups.size(), lookups.size() + 8}) {
    SCOPED_TRACE(::testing::Message() << "width " << width);
    std::vector<Lane> lanes = lookups;
    lanes.resize(width);
    RouteLanes(lanes.data(), width, lookups.size(), none, none);
    for (std::size_t i = 0; i < lookups.size(); ++i) {
      lanes[i].ring->LookupFinish(lanes[i].state);
      expect_want(i, lanes[i].result);
    }
  }
}

}  // namespace
}  // namespace lorm
