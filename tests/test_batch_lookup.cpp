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

// ---- Block placement: AdvertiseAll against one Advertise per tuple ------

std::string KeyText(std::uint64_t key) { return std::to_string(key); }
std::string KeyText(const cycloid::CycloidId& key) {
  return std::to_string(key.k) + ":" + std::to_string(key.a);
}

/// Every directory entry of `svc` (a DirectoryService over `Ring`), node by
/// node in Nodes() order and in each directory's ForEach order, one line
/// each: node|attr|value|provider|ordinal|key|epoch|tag|replica. False
/// when `svc` runs on another ring.
template <typename Ring>
bool AppendDirectories(const discovery::DiscoveryService& svc,
                       std::vector<std::string>& out) {
  const auto* dir_svc =
      dynamic_cast<const discovery::DirectoryService<Ring>*>(&svc);
  if (dir_svc == nullptr) return false;
  for (const NodeAddr node : svc.Nodes()) {
    const auto* dir = dir_svc->directories().Find(node);
    if (dir == nullptr) continue;
    dir->ForEach([&](const auto& e) {
      std::ostringstream line;
      line << std::setprecision(17) << node << '|' << e.info.attr << '|'
           << e.info.value.ToString() << '|' << e.info.provider << '|'
           << e.ordinal << '|' << KeyText(e.key) << '|' << e.epoch << '|'
           << int{e.tag} << '|' << int{e.replica};
      out.push_back(line.str());
    });
  }
  return true;
}

std::vector<std::string> Directories(const discovery::DiscoveryService& svc) {
  std::vector<std::string> out;
  const bool known = AppendDirectories<chord::ChordRing>(svc, out) ||
                     AppendDirectories<cycloid::CycloidNetwork>(svc, out) ||
                     AppendDirectories<singlehop::SingleHopRing>(svc, out);
  EXPECT_TRUE(known) << svc.name() << " is not a DirectoryService";
  return out;
}

std::vector<std::pair<std::string, std::uint64_t>> NonzeroCounters() {
  auto counters = obs::Registry::Global().Snapshot();
  std::erase_if(counters, [](const auto& c) { return c.second == 0; });
  return counters;
}

std::string FlightLines() {
  std::ostringstream out;
  obs::FlightRecorder::Global().WriteJsonLines(out);
  return out.str();
}

/// Metrics and flight recording on for one leg, each leg from zero.
struct ObsLeg {
  ObsLeg() {
    obs::Registry::Global().Reset();
    obs::FlightRecorder::Global().Reset();
    obs::SetMetricsEnabled(true);
    obs::SetFlightEnabled(true);
  }
  ~ObsLeg() {
    obs::SetMetricsEnabled(false);
    obs::SetFlightEnabled(false);
    obs::Registry::Global().Reset();
    obs::FlightRecorder::Global().Reset();
  }
};

/// MAAN and D1HT store a tuple's attribute record before its value record.
/// Where both records of one tuple share a node, ForEach (attr, ordinal,
/// then insertion order) shows the attribute record first; returns how
/// many such pairs `dirs` holds.
std::size_t ExpectAttributeRecordsFirst(const std::vector<std::string>& dirs) {
  struct Line {
    std::string group;  // node, attr, ordinal: ForEach keeps these together
    std::string copy;   // every field but the tag
    int tag = 0;
  };
  std::vector<Line> lines;
  for (const std::string& text : dirs) {
    std::istringstream in(text);
    std::vector<std::string> f;
    for (std::string w; std::getline(in, w, '|');) f.push_back(w);
    lines.push_back({f[0] + '|' + f[1] + '|' + f[4],
                     f[2] + '|' + f[3] + '|' + f[6] + '|' + f[8],
                     std::stoi(f[7])});
  }
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (std::size_t j = i + 1;
         j < lines.size() && lines[j].group == lines[i].group; ++j) {
      if (lines[j].copy != lines[i].copy || lines[j].tag == lines[i].tag) {
        continue;
      }
      ++pairs;
      EXPECT_EQ(lines[i].tag, discovery::MaanService::kAttributeRecord)
          << "value record stored first: " << dirs[i];
    }
  }
  return pairs;
}

TEST(BlockPlacement, MatchesOneAdvertisePerTuple) {
  for (const SystemKind kind : harness::AllSystems()) {
    for (const std::size_t replicas : {1, 3}) {
      for (const bool cache : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << harness::SystemName(kind) << " replicas " << replicas
                     << " cache " << cache);
        harness::Setup setup = harness::Setup::Quick();
        setup.replicas = replicas;
        setup.cache = cache;
        const resource::Workload workload(setup.MakeWorkloadConfig());
        auto a = harness::MakeService(kind, setup, workload.registry());
        auto b = harness::MakeService(kind, setup, workload.registry());
        const auto infos = harness::GridInfos(setup, workload);

        HopCount block_hops = 0;
        std::vector<std::pair<std::string, std::uint64_t>> block_counters;
        std::string block_flight;
        {
          const ObsLeg leg;
          block_hops = harness::AdvertiseAll(*a, infos);
          block_counters = NonzeroCounters();
          block_flight = FlightLines();
        }
        EXPECT_FALSE(block_counters.empty());
        HopCount tuple_hops = 0;
        {
          const ObsLeg leg;
          for (const auto& info : infos) tuple_hops += b->Advertise(info);
          EXPECT_EQ(NonzeroCounters(), block_counters);
          if (cache) {
            EXPECT_FALSE(block_flight.empty());
            EXPECT_EQ(FlightLines(), block_flight);
          }
        }
        EXPECT_EQ(block_hops, tuple_hops);
        EXPECT_GT(block_hops, 0u);
        EXPECT_EQ(a->TotalInfoPieces(), b->TotalInfoPieces());
        const auto dirs = Directories(*a);
        EXPECT_EQ(dirs.size(), a->TotalInfoPieces());
        EXPECT_EQ(dirs, Directories(*b));
        if (a->name() == "MAAN" || a->name() == "D1HT") {
          EXPECT_GT(ExpectAttributeRecordsFirst(dirs), 0u);
        }
      }
    }
  }
}

TEST(BlockPlacement, FailedCycloidRoutesStoreNothingAsPerTuple) {
  // Three crashes and no repair: routes through the crashed nodes' stale
  // links fail, store nothing and still bill their hops.
  const harness::Setup setup = harness::Setup::Quick();
  auto a = testutil::MakeBed(SystemKind::kLorm, setup);
  auto b = testutil::MakeBed(SystemKind::kLorm, setup);
  for (const NodeAddr crashed : {3u, 100u, 200u}) {
    a.service->FailNode(crashed);
    b.service->FailNode(crashed);
  }
  std::vector<resource::ResourceInfo> live;
  for (const auto& info : a.infos) {
    if (a.service->HasNode(info.provider)) live.push_back(info);
  }
  const std::size_t before = a.service->TotalInfoPieces();
  const HopCount block_hops = a.service->AdvertiseAll(live);
  HopCount tuple_hops = 0;
  for (const auto& info : live) tuple_hops += b.service->Advertise(info);
  EXPECT_EQ(block_hops, tuple_hops);
  EXPECT_LT(a.service->TotalInfoPieces() - before, live.size())
      << "no route failed, so nothing here is checked";
  EXPECT_EQ(a.service->TotalInfoPieces(), b.service->TotalInfoPieces());
  EXPECT_EQ(Directories(*a.service), Directories(*b.service));
}

TEST(BlockPlacement, NonMemberProviderThrowsWithEarlierTuplesStored) {
  for (const SystemKind kind : harness::AllSystems()) {
    SCOPED_TRACE(harness::SystemName(kind));
    const harness::Setup setup = harness::Setup::Quick();
    const resource::Workload workload(setup.MakeWorkloadConfig());
    auto a = harness::MakeService(kind, setup, workload.registry());
    auto b = harness::MakeService(kind, setup, workload.registry());
    auto infos = harness::GridInfos(setup, workload);
    infos.resize(40);
    infos[5].provider = static_cast<NodeAddr>(setup.nodes + 7);
    EXPECT_THROW(a->AdvertiseAll(infos), InvariantError);
    for (std::size_t i = 0; i < 5; ++i) b->Advertise(infos[i]);
    EXPECT_GT(b->TotalInfoPieces(), 0u);
    EXPECT_EQ(a->TotalInfoPieces(), b->TotalInfoPieces());
    EXPECT_EQ(Directories(*a), Directories(*b));
  }
}

}  // namespace
}  // namespace lorm
