// The data-layout overhaul's contract: after warm-up, the steady-state
// lookup path performs zero heap allocations. LookupInto reuses the
// caller's path buffer, ClosestPreceding reads cached finger IDs off the
// slot slab, and OwnsNode's oracle fallback never fires on a stable
// network — so a warm lookup loop must not touch the allocator at all. The
// same holds for a warm Advertise or AdvertiseAll, whose routes reuse the
// service's placement lanes: only the owner directories' entry vectors
// grow. A warm classic
// Query() allocates only the result it returns, and with the planner or
// the result cache on its allocation count repeats from pass to pass. A
// directory's lazy merge allocates nothing while its run has room.
//
// Verified with counting global operator new/delete: the counter is
// process-wide, so each probe region runs single-threaded with no other
// live threads (gtest's main thread only).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "chord/chord.hpp"
#include "common/random.hpp"
#include "cycloid/cycloid.hpp"
#include "discovery/directory.hpp"
#include "harness/batch_lookup.hpp"
#include "harness/setup.hpp"
#include "resource/workload.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Not inlined: where GCC inlines these operators into a caller, it sees
// memory from malloc released through operator delete (or from operator new
// released through free) and reports -Wmismatched-new-delete, so whether a
// Release -Werror build compiled would depend on what GCC chose to inline.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace lorm {
namespace {

/// Allocations observed while running `fn`.
template <typename Fn>
std::uint64_t CountAllocations(Fn&& fn) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(LookupAllocFree, ChordWarmLookupLoopDoesNotAllocate) {
  chord::Config cfg;
  cfg.bits = 20;
  auto ring = chord::MakeRing(2048, cfg, /*deterministic_ids=*/false);
  const auto members = ring.Members();

  Rng rng(29);
  chord::LookupResult res;
  // Warm-up: grows res.path to the longest route this loop will see (the
  // path vector keeps its capacity across LookupInto calls).
  for (int i = 0; i < 2000; ++i) {
    ring.LookupInto(rng.NextBelow(ring.space()),
                    members[rng.NextBelow(members.size())], res);
  }

  Rng replay(29);  // same sequence: warmed capacity is guaranteed to fit
  const std::uint64_t allocs = CountAllocations([&] {
    for (int i = 0; i < 2000; ++i) {
      ring.LookupInto(replay.NextBelow(ring.space()),
                      members[replay.NextBelow(members.size())], res);
    }
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(LookupAllocFree, CycloidWarmLookupLoopDoesNotAllocate) {
  cycloid::Config cfg;
  cfg.dimension = 8;
  auto net = cycloid::MakeCycloid(2048, cfg);
  const auto members = net.Members();
  const auto d = net.dimension();

  Rng rng(31);
  cycloid::LookupResult res;
  for (int i = 0; i < 2000; ++i) {
    const cycloid::CycloidId key{static_cast<unsigned>(rng.NextBelow(d)),
                                 rng.NextBelow(std::uint64_t{1} << d)};
    net.LookupInto(key, members[rng.NextBelow(members.size())], res);
  }

  Rng replay(31);
  const std::uint64_t allocs = CountAllocations([&] {
    for (int i = 0; i < 2000; ++i) {
      const cycloid::CycloidId key{
          static_cast<unsigned>(replay.NextBelow(d)),
          replay.NextBelow(std::uint64_t{1} << d)};
      net.LookupInto(key, members[replay.NextBelow(members.size())], res);
    }
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(LookupAllocFree, ChordCachedWarmLookupLoopDoesNotAllocate) {
  // Same contract with the route cache on: probes, shortcut jumps and
  // teaching inserts all work in the table pre-sized at AllocateSlot time,
  // so the warm cache-on path is allocation-free too.
  chord::Config cfg;
  cfg.bits = 20;
  cfg.route_cache = true;
  auto ring = chord::MakeRing(2048, cfg, /*deterministic_ids=*/false);
  const auto members = ring.Members();

  Rng rng(29);
  chord::LookupResult res;
  for (int i = 0; i < 2000; ++i) {
    ring.LookupInto(rng.NextBelow(ring.space()),
                    members[rng.NextBelow(members.size())], res);
  }

  Rng replay(29);
  std::uint64_t shortcut_hops = 0;
  const std::uint64_t allocs = CountAllocations([&] {
    for (int i = 0; i < 2000; ++i) {
      ring.LookupInto(replay.NextBelow(ring.space()),
                      members[replay.NextBelow(members.size())], res);
      shortcut_hops += res.cache_hits;
    }
  });
  EXPECT_EQ(allocs, 0u);
  // The replay repeats the warm-up stream, so the taught shortcuts must
  // actually fire (proving the zero above measured the cache-on path).
  EXPECT_GT(shortcut_hops, 0u);
}

TEST(LookupAllocFree, CycloidCachedWarmLookupLoopDoesNotAllocate) {
  cycloid::Config cfg;
  cfg.dimension = 8;
  cfg.route_cache = true;
  auto net = cycloid::MakeCycloid(2048, cfg);
  const auto members = net.Members();
  const auto d = net.dimension();

  Rng rng(31);
  cycloid::LookupResult res;
  for (int i = 0; i < 2000; ++i) {
    const cycloid::CycloidId key{static_cast<unsigned>(rng.NextBelow(d)),
                                 rng.NextBelow(std::uint64_t{1} << d)};
    net.LookupInto(key, members[rng.NextBelow(members.size())], res);
  }

  Rng replay(31);
  std::uint64_t shortcut_hops = 0;
  const std::uint64_t allocs = CountAllocations([&] {
    for (int i = 0; i < 2000; ++i) {
      const cycloid::CycloidId key{
          static_cast<unsigned>(replay.NextBelow(d)),
          replay.NextBelow(std::uint64_t{1} << d)};
      net.LookupInto(key, members[replay.NextBelow(members.size())], res);
      shortcut_hops += res.cache_hits;
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(shortcut_hops, 0u);
}

TEST(LookupAllocFree, ChordBatchEngineWarmRoundsDoNotAllocate) {
  // The batch engine's contract: lanes are sized once in the constructor
  // and lane results keep their path capacity across refills, so a warm
  // engine routes whole batches without touching the allocator.
  chord::Config cfg;
  cfg.bits = 20;
  auto ring = chord::MakeRing(2048, cfg, /*deterministic_ids=*/false);
  const auto members = ring.Members();

  using Engine = harness::BatchLookupEngine<chord::ChordRing>;
  Engine engine(16);
  Rng rng(37);
  std::vector<Engine::Request> reqs(2000);
  for (auto& r : reqs) {
    r.key = rng.NextBelow(ring.space());
    r.origin = members[rng.NextBelow(members.size())];
  }

  std::uint64_t routed = 0;
  auto sink = [&](std::size_t, const chord::LookupResult&) { ++routed; };
  engine.Run(ring, reqs.data(), reqs.size(), sink);  // warm-up: grows paths

  const std::uint64_t allocs = CountAllocations(
      [&] { engine.Run(ring, reqs.data(), reqs.size(), sink); });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(routed, 2 * reqs.size());
}

TEST(LookupAllocFree, CycloidBatchEngineWarmRoundsDoNotAllocate) {
  cycloid::Config cfg;
  cfg.dimension = 8;
  auto net = cycloid::MakeCycloid(2048, cfg);
  const auto members = net.Members();
  const auto d = net.dimension();

  using Engine = harness::BatchLookupEngine<cycloid::CycloidNetwork>;
  Engine engine(16);
  Rng rng(41);
  std::vector<Engine::Request> reqs(2000);
  for (auto& r : reqs) {
    r.key = cycloid::CycloidId{static_cast<unsigned>(rng.NextBelow(d)),
                               rng.NextBelow(std::uint64_t{1} << d)};
    r.origin = members[rng.NextBelow(members.size())];
  }

  std::uint64_t routed = 0;
  auto sink = [&](std::size_t, const cycloid::LookupResult&) { ++routed; };
  engine.Run(net, reqs.data(), reqs.size(), sink);

  const std::uint64_t allocs = CountAllocations(
      [&] { engine.Run(net, reqs.data(), reqs.size(), sink); });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(routed, 2 * reqs.size());
}

TEST(LookupAllocFree, WarmAdvertiseRoutesWithoutAllocating) {
  // Every Advertise and AdvertiseAll routes its placements (two per tuple
  // for MAAN and D1HT) in the service's placement lanes, whose results and
  // naming buffer are reused, so a warm repeat of the same tuple allocates
  // only when an owner directory's entry vector doubles. A fresh path per
  // route would cost at least one allocation per route.
  const harness::Setup setup = harness::Setup::Small();  // cache, plan off
  ASSERT_EQ(setup.replicas, 1u);
  resource::Workload workload(setup.MakeWorkloadConfig());
  Rng rng(43);
  resource::ResourceInfo info;
  for (const auto& candidate : workload.GenerateInfos({5}, rng)) {
    if (candidate.value.kind() == resource::ValueKind::kNumeric) {
      info = candidate;
      break;
    }
  }
  ASSERT_EQ(info.provider, 5u);
  for (const harness::SystemKind kind : harness::AllSystems()) {
    SCOPED_TRACE(harness::SystemName(kind));
    const auto service = harness::MakeService(kind, setup, workload.registry());
    for (int i = 0; i < 1000; ++i) service->Advertise(info);
    const std::uint64_t allocs = CountAllocations([&] {
      for (int i = 0; i < 1000; ++i) service->Advertise(info);
    });
    EXPECT_LT(allocs, 16u);
    EXPECT_EQ(service->TotalInfoPieces() % 2000, 0u);

    // The block path: after a warm-up block, a block of 1000 copies.
    const std::vector<resource::ResourceInfo> block(1000, info);
    service->AdvertiseAll(block);
    const std::uint64_t block_allocs =
        CountAllocations([&] { service->AdvertiseAll(block); });
    EXPECT_LT(block_allocs, 16u);
    EXPECT_EQ(service->TotalInfoPieces() % 4000, 0u);
  }
}

TEST(DirectoryAllocFree, MergeWithRoomDoesNotAllocate) {
  // A merge into a non-empty run sorts a small insert buffer by insertion
  // and merges it from the back, in place; once the key array has grown to
  // the run's capacity, a merge that fits in it allocates nothing.
  using Dir = discovery::Directory<std::uint64_t>;
  const auto entry = [](double ordinal, NodeAddr provider) {
    Dir::Entry e;
    e.info = {0, resource::AttrValue::Number(ordinal), provider};
    e.ordinal = ordinal;
    return e;
  };
  Dir dir;
  std::size_t hits = 0;
  const auto merge = [&] {
    dir.ForEachMatch(0, 250.0, 260.0, [&](const auto&) { ++hits; });
  };
  for (NodeAddr i = 0; i < 1000; ++i) dir.Insert(entry(1000.0 - i, i));
  merge();  // adopts the buffer: 1000 entries, capacity 1024
  for (NodeAddr i = 0; i < 10; ++i) dir.Insert(entry(500.5 + i, 2000 + i));
  merge();  // the key array grows to the run's capacity
  for (NodeAddr i = 0; i < 10; ++i) dir.Insert(entry(250.5 + i, 3000 + i));
  hits = 0;
  EXPECT_EQ(CountAllocations(merge), 0u);
  EXPECT_EQ(hits, 21u);  // ordinals 250..260 and the ten new 250.5..259.5
}

/// A Quick deployment with every tuple advertised, 3-attribute point
/// queries and 2-attribute bounded ranges (most of which match).
struct QueryBed {
  explicit QueryBed(harness::Setup s)
      : setup(s), workload(setup.MakeWorkloadConfig()) {
    std::vector<NodeAddr> providers(setup.nodes);
    for (std::size_t i = 0; i < providers.size(); ++i) {
      providers[i] = static_cast<NodeAddr>(i);
    }
    Rng rng(47);
    infos = workload.GenerateInfos(providers, rng);
    for (int i = 0; i < 40; ++i) {
      const NodeAddr requester = providers[rng.NextBelow(providers.size())];
      queries.push_back(workload.MakePointQuery(3, requester, rng));
      queries.push_back(workload.MakeRangeQuery(
          2, requester, resource::RangeStyle::kBounded, rng));
    }
  }
  harness::Setup setup;
  resource::Workload workload;
  std::vector<resource::ResourceInfo> infos;
  std::vector<resource::MultiQuery> queries;
};

TEST(LookupAllocFree, WarmQueryAllocatesOnlyItsResult) {
  // A classic cache-off Query() routes its root lookups in lanes that
  // QueryScratch keeps, walks and probes in place, collects raw matches,
  // dedups and joins in QueryScratch too. So once a pass has warmed the
  // scratch, a query allocates exactly its QueryResult: per_sub and
  // stats.sub_costs, one exactly sized list per sub-query that matched, and
  // the provider list when it is not empty.
  const QueryBed bed(harness::Setup::Quick());  // cache, plan off
  for (const harness::SystemKind kind : harness::AllSystems()) {
    SCOPED_TRACE(harness::SystemName(kind));
    const auto service =
        harness::MakeService(kind, bed.setup, bed.workload.registry());
    harness::AdvertiseAll(*service, bed.infos);
    discovery::QueryScratch scratch;
    for (const auto& q : bed.queries) service->Query(q, scratch);  // warm-up
    std::size_t matched = 0;
    std::size_t joined = 0;
    for (std::size_t i = 0; i < bed.queries.size(); ++i) {
      discovery::QueryResult r;
      const std::uint64_t allocs = CountAllocations(
          [&] { r = service->Query(bed.queries[i], scratch); });
      const auto lists = static_cast<std::uint64_t>(std::count_if(
          r.per_sub.begin(), r.per_sub.end(),
          [](const auto& m) { return !m.empty(); }));
      matched += lists != 0 ? 1 : 0;
      joined += r.providers.empty() ? 0 : 1;
      EXPECT_EQ(allocs, 2 + lists + (r.providers.empty() ? 0u : 1u))
          << "query " << i;
    }
    EXPECT_GT(matched, bed.queries.size() / 4);
    EXPECT_GT(joined, 0u);
  }
}

TEST(LookupAllocFree, WarmQueryAllocationsRepeatWithPlannerAndCache) {
  // With the planner or the result cache on a query also allocates what
  // the cache copies, so its count is not the classic one; but it must
  // repeat exactly from one warm pass to the next. The discovery
  // benchmark's traced run rejects a query whose count moves between
  // replays, which a scratch buffer that trades capacity with another (as
  // a swap does) makes happen.
  for (const auto& [plan, cache] :
       {std::pair{true, false}, std::pair{false, true},
        std::pair{true, true}}) {
    harness::Setup setup = harness::Setup::Quick();
    setup.plan = plan;
    setup.cache = cache;
    const QueryBed bed(setup);
    for (const harness::SystemKind kind : harness::AllSystems()) {
      SCOPED_TRACE(::testing::Message()
                   << harness::SystemName(kind) << " plan=" << plan
                   << " cache=" << cache);
      const auto service =
          harness::MakeService(kind, bed.setup, bed.workload.registry());
      harness::AdvertiseAll(*service, bed.infos);
      discovery::QueryScratch scratch;
      for (const auto& q : bed.queries) service->Query(q, scratch);  // warm-up
      std::vector<std::uint64_t> first;
      for (const auto& q : bed.queries) {
        first.push_back(CountAllocations([&] { service->Query(q, scratch); }));
      }
      for (std::size_t i = 0; i < bed.queries.size(); ++i) {
        EXPECT_EQ(CountAllocations(
                      [&] { service->Query(bed.queries[i], scratch); }),
                  first[i])
            << "query " << i;
      }
    }
  }
}

TEST(LookupAllocFree, FreshResultStillAllocatesOnlyForThePath) {
  // Sanity-check the counter itself: a cold LookupResult must allocate
  // (its path vector grows), proving the zero above is not a dead counter.
  chord::Config cfg;
  cfg.bits = 16;
  auto ring = chord::MakeRing(256, cfg, /*deterministic_ids=*/false);
  const auto members = ring.Members();
  const std::uint64_t allocs = CountAllocations([&] {
    chord::LookupResult cold;
    ring.LookupInto(ring.space() / 2, members.front(), cold);
  });
  EXPECT_GT(allocs, 0u);
}

}  // namespace
}  // namespace lorm
