// Adaptive caching layer tests: route-cache hit/miss accounting and
// liveness discipline, result-cache churn invalidation in all five
// services (a join, a leave, a crash and an epoch expiry each force a
// re-lookup — never a stale answer — and each membership event invalidates
// exactly once, whatever the ring count, while a refused one changes
// nothing), and the golden-equivalence
// guarantee that --cache on/off produce identical QueryResults on the quick
// fig4a/fig5a workloads; a failed sub-query is never cached, even after an
// earlier one of the same query failed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "chord/chord.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "cycloid/cycloid.hpp"
#include "harness/experiments.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "service_test_util.hpp"

namespace lorm {
namespace {

using harness::SystemKind;
using resource::RangeStyle;
using testutil::MakeBed;

std::uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name).Value();
}

/// Scoped metrics recording (the registry is process-global; tests read
/// counter deltas, never absolute values).
struct MetricsScope {
  MetricsScope() { obs::SetMetricsEnabled(true); }
  ~MetricsScope() { obs::SetMetricsEnabled(false); }
};

/// Scoped flight recording; leaves the recorder off and empty, as other
/// suites expect.
struct FlightScope {
  FlightScope() {
    obs::FlightRecorder::Global().Reset();
    obs::SetFlightEnabled(true);
  }
  ~FlightScope() {
    obs::SetFlightEnabled(false);
    obs::FlightRecorder::Global().Reset();
  }
};

/// The result-cache invalidations on the flight ring; empties the ring.
std::size_t TakeInvalidations() {
  std::size_t n = 0;
  for (const obs::FlightEvent& e : obs::FlightRecorder::Global().Snapshot()) {
    if (e.kind == obs::FlightEventKind::kCacheInvalidate) ++n;
  }
  obs::FlightRecorder::Global().Reset();
  return n;
}

// ---- Route cache (overlay level) -------------------------------------------

TEST(RouteCache, ChordRepeatLookupHitsAndShortens) {
  MetricsScope metrics;
  chord::Config cfg;
  cfg.bits = 16;
  cfg.route_cache = true;
  auto ring = chord::MakeRing(512, cfg, /*deterministic_ids=*/false);
  const auto members = ring.Members();

  // Find a (key, origin) pair whose cold walk takes several hops.
  Rng rng(41);
  chord::Key key = 0;
  NodeAddr origin = kNoNode;
  chord::LookupResult cold;
  do {
    key = rng.NextBelow(ring.space());
    origin = members[rng.NextBelow(members.size())];
    cold = ring.Lookup(key, origin);
    ASSERT_TRUE(cold.ok);
  } while (cold.hops < 3);
  EXPECT_EQ(cold.cache_hits, 0u);  // nothing learned before the first walk

  const std::uint64_t hits_before = CounterValue("lorm.cache.route.hits");
  const auto warm = ring.Lookup(key, origin);
  ASSERT_TRUE(warm.ok);
  EXPECT_EQ(warm.owner, cold.owner);
  // The completed walk taught every path node a shortcut to the owner, so
  // the repeat jumps straight there.
  EXPECT_EQ(warm.hops, 1u);
  EXPECT_EQ(warm.cache_hits, 1u);
  EXPECT_EQ(CounterValue("lorm.cache.route.hits"), hits_before + 1);
}

TEST(RouteCache, ChordShortcutDiesWithItsTarget) {
  chord::Config cfg;
  cfg.bits = 16;
  cfg.route_cache = true;
  auto ring = chord::MakeRing(256, cfg, /*deterministic_ids=*/false);
  Rng rng(43);
  const auto members = ring.Members();
  const chord::Key key = rng.NextBelow(ring.space());
  const NodeAddr origin = members[rng.NextBelow(members.size())];
  const auto cold = ring.Lookup(key, origin);
  ASSERT_TRUE(cold.ok);
  if (cold.owner == origin) GTEST_SKIP() << "origin owns the key";

  // Crash the learned target: the cached shortcut must fail validation (its
  // generation died with the slot) and the lookup re-route to the new owner.
  ring.FailNode(cold.owner);
  const auto after = ring.Lookup(key, origin);
  ASSERT_TRUE(after.ok);
  EXPECT_NE(after.owner, cold.owner);
  EXPECT_EQ(after.owner, ring.OwnerOf(key));
}

TEST(RouteCache, CycloidRepeatLookupHitsAndNeverMisroutes) {
  MetricsScope metrics;
  cycloid::Config cfg;
  cfg.dimension = 7;
  cfg.route_cache = true;
  auto net = cycloid::MakeCycloid(7 * 128, cfg);
  const auto members = net.Members();

  Rng rng(47);
  cycloid::CycloidId key;
  NodeAddr origin = kNoNode;
  cycloid::LookupResult cold;
  do {
    key = cycloid::CycloidId{static_cast<unsigned>(rng.NextBelow(7)),
                             rng.NextBelow(net.cluster_space())};
    origin = members[rng.NextBelow(members.size())];
    cold = net.Lookup(key, origin);
    ASSERT_TRUE(cold.ok);
  } while (cold.hops < 3);

  const auto warm = net.Lookup(key, origin);
  ASSERT_TRUE(warm.ok);
  EXPECT_EQ(warm.owner, cold.owner);
  EXPECT_EQ(warm.hops, 1u);
  EXPECT_EQ(warm.cache_hits, 1u);

  // Crash the owner; the stale shortcut must be skipped, not followed.
  net.FailNode(cold.owner);
  net.StabilizeAll();
  const auto after = net.Lookup(key, origin);
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.owner, net.OwnerOf(key));
  EXPECT_NE(after.owner, cold.owner);
}

// ---- Result cache (service level) ------------------------------------------

class ResultCachePerSystem : public ::testing::TestWithParam<SystemKind> {};

TEST_P(ResultCachePerSystem, RepeatQueryServedFromCacheIdentically) {
  MetricsScope metrics;
  auto setup = harness::Setup::Small();
  setup.cache = true;
  auto bed = MakeBed(GetParam(), setup);

  Rng rng(53);
  const auto q =
      bed.workload->MakeRangeQuery(2, 7, RangeStyle::kBounded, rng);
  const std::uint64_t h0 = CounterValue("lorm.cache.result.hits");
  const std::uint64_t m0 = CounterValue("lorm.cache.result.misses");
  const auto fresh = bed.service->Query(q);
  ASSERT_FALSE(fresh.stats.failed);
  EXPECT_EQ(CounterValue("lorm.cache.result.hits"), h0);
  EXPECT_GE(CounterValue("lorm.cache.result.misses"), m0 + q.subs.size());

  // Same ranges from a different requester: answers must be identical (the
  // walk root depends on the range, never on the requester) and free.
  auto repeat = q;
  repeat.requester = 301;
  const auto cached = bed.service->Query(repeat);
  ASSERT_FALSE(cached.stats.failed);
  EXPECT_EQ(cached.per_sub, fresh.per_sub);
  EXPECT_EQ(cached.providers, fresh.providers);
  for (const auto cost : cached.stats.sub_costs) EXPECT_EQ(cost, 0u);
  EXPECT_EQ(CounterValue("lorm.cache.result.hits"), h0 + q.subs.size());
}

TEST_P(ResultCachePerSystem, JoinLeaveFailEachInvalidate) {
  MetricsScope metrics;
  FlightScope flight;
  auto setup = harness::Setup::Small();
  setup.cache = true;
  auto bed = MakeBed(GetParam(), setup);

  Rng rng(59);
  const auto q =
      bed.workload->MakeRangeQuery(2, 11, RangeStyle::kBounded, rng);
  (void)bed.service->Query(q);  // prime the cache

  const auto expect_recomputed = [&](const char* event) {
    const std::uint64_t misses = CounterValue("lorm.cache.result.misses");
    const auto res = bed.service->Query(q);
    EXPECT_GE(CounterValue("lorm.cache.result.misses"),
              misses + q.subs.size())
        << event << " did not invalidate the result cache";
    // Zero stale results: everything returned matches ground truth over the
    // live network.
    const auto truth =
        harness::BruteForceProviders(bed.infos, q, *bed.service);
    for (const NodeAddr p : res.providers) {
      EXPECT_TRUE(std::binary_search(truth.begin(), truth.end(), p))
          << event << " left a stale provider in the cache";
    }
    return res;
  };

  // Every membership event invalidates once, however many rings it
  // changes (Mercury: one hub per attribute).
  const auto expect_one_invalidation = [&](const char* event) {
    EXPECT_EQ(TakeInvalidations(), 1u)
        << event << " must invalidate the result cache exactly once";
  };

  // Leave first: LORM's Small network is at full Cycloid capacity, so a
  // join only fits once a position has been vacated.
  const auto live = bed.service->Nodes();
  TakeInvalidations();
  bed.service->LeaveNode(live[live.size() / 2]);
  expect_one_invalidation("leave");
  bed.service->Maintain();
  expect_recomputed("leave");
  (void)bed.service->Query(q);  // re-prime

  TakeInvalidations();
  ASSERT_TRUE(bed.service->JoinNode(9'001));
  expect_one_invalidation("join");
  bed.service->Maintain();
  expect_recomputed("join");
  (void)bed.service->Query(q);

  const auto live2 = bed.service->Nodes();
  TakeInvalidations();
  bed.service->FailNode(live2[live2.size() / 3]);
  expect_one_invalidation("crash");
  bed.service->Maintain();
  expect_recomputed("fail");
}

TEST_P(ResultCachePerSystem, RefusedMembershipEventsChangeNothing) {
  MetricsScope metrics;
  FlightScope flight;
  auto setup = harness::Setup::Small();
  setup.cache = true;
  auto bed = MakeBed(GetParam(), setup);

  // LORM's Small network is at full Cycloid capacity, where a join is
  // rejected (false) before its address is judged: vacate a position first.
  const auto live = bed.service->Nodes();
  bed.service->LeaveNode(live[live.size() / 2]);
  bed.service->Maintain();

  Rng rng(67);
  const auto q =
      bed.workload->MakeRangeQuery(2, 11, RangeStyle::kBounded, rng);
  const auto primed = bed.service->Query(q);
  ASSERT_FALSE(primed.stats.failed);
  const std::size_t size = bed.service->NetworkSize();
  const NodeAddr stranger = 9'001;
  ASSERT_FALSE(bed.service->HasNode(stranger));
  const NodeAddr member = bed.service->Nodes().front();

  // A refused event records nothing and leaves the primed answer cached.
  const auto expect_unchanged = [&](const char* event) {
    EXPECT_TRUE(obs::FlightRecorder::Global().Snapshot().empty())
        << "a refused " << event << " was flight-recorded";
    obs::FlightRecorder::Global().Reset();
    const std::uint64_t hits = CounterValue("lorm.cache.result.hits");
    const auto cached = bed.service->Query(q);
    EXPECT_EQ(CounterValue("lorm.cache.result.hits"), hits + q.subs.size())
        << "a refused " << event << " invalidated the result cache";
    EXPECT_EQ(cached.providers, primed.providers);
    EXPECT_EQ(bed.service->NetworkSize(), size);
  };

  obs::FlightRecorder::Global().Reset();
  EXPECT_THROW(bed.service->LeaveNode(stranger), InvariantError);
  expect_unchanged("leave");
  EXPECT_THROW(bed.service->FailNode(stranger), InvariantError);
  expect_unchanged("crash");
  EXPECT_THROW(bed.service->JoinNode(member), ConfigError);
  expect_unchanged("join");
}

TEST_P(ResultCachePerSystem, EpochExpiryEvictsCachedAnswers) {
  auto setup = harness::Setup::Small();
  setup.cache = true;
  auto bed = MakeBed(GetParam(), setup);

  Rng rng(61);
  const auto q =
      bed.workload->MakeRangeQuery(2, 13, RangeStyle::kFullSpan, rng);
  const auto before = bed.service->Query(q);
  ASSERT_FALSE(before.stats.failed);
  bool had_matches = false;
  for (const auto& sub : before.per_sub) had_matches |= !sub.empty();
  ASSERT_TRUE(had_matches) << "full-span query found nothing to cache";

  // Expire every advertised entry without re-advertising: a cached answer
  // surviving this would be the textbook stale result.
  bed.service->SetEpoch(1);
  ASSERT_GT(bed.service->ExpireEntriesBefore(1), 0u);
  const auto after = bed.service->Query(q);
  for (const auto& sub : after.per_sub) {
    EXPECT_TRUE(sub.empty()) << "expired entries served from the cache";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Systems, ResultCachePerSystem,
    ::testing::ValuesIn(harness::AllSystems()),
    [](const auto& info) { return std::string(SystemName(info.param)); });

// ---- Golden equivalence: cache on/off, identical QueryResults --------------

class CacheEquivalence : public ::testing::TestWithParam<SystemKind> {};

TEST_P(CacheEquivalence, QuickWorkloadResultsAreIdentical) {
  // The quick fig4a (point) and fig5a (wide-range) workloads, replayed
  // against two copies of the same system — caching on and off. Hop counts
  // may differ (that is the point of the cache); the answers may not.
  auto setup_off = harness::Setup::Quick();
  auto setup_on = setup_off;
  setup_on.cache = true;
  auto off = MakeBed(GetParam(), setup_off);
  auto on = MakeBed(GetParam(), setup_on);

  Rng rng_off(0xF16u);
  Rng rng_on(0xF16u);
  const auto n = static_cast<NodeAddr>(setup_off.nodes);
  for (int i = 0; i < 30; ++i) {
    const NodeAddr requester = static_cast<NodeAddr>(
        rng_off.NextBelow(n));
    ASSERT_EQ(requester, static_cast<NodeAddr>(rng_on.NextBelow(n)));
    const bool range = i % 2 == 0;  // alternate fig5a / fig4a shapes
    const auto q_off =
        range ? off.workload->MakeRangeQuery(2, requester,
                                             RangeStyle::kBounded, rng_off)
              : off.workload->MakePointQuery(2, requester, rng_off);
    const auto q_on =
        range ? on.workload->MakeRangeQuery(2, requester,
                                            RangeStyle::kBounded, rng_on)
              : on.workload->MakePointQuery(2, requester, rng_on);
    const auto r_off = off.service->Query(q_off);
    const auto r_on = on.service->Query(q_on);
    ASSERT_EQ(r_off.stats.failed, r_on.stats.failed) << "query " << i;
    ASSERT_EQ(r_off.per_sub, r_on.per_sub) << "query " << i;
    ASSERT_EQ(r_off.providers, r_on.providers) << "query " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Systems, CacheEquivalence,
    ::testing::ValuesIn(harness::AllSystems()),
    [](const auto& info) { return std::string(SystemName(info.param)); });

// ---- Failed sub-queries are never cached ----------------------------------

TEST(ResultCacheFailures, NoFailedSubQueryIsCachedEvenAfterAnEarlierFailure) {
  // Crashes with no Maintain leave LORM's Cycloid links pointing at dead
  // nodes, so some lookups reach a routing dead end and fail (replicas = 1).
  // In a query whose two sub-queries both fail to route, the second failure
  // must not be cached either: later queries would get its empty answer at
  // no cost, marked successful, until the next invalidation — and Maintain
  // repairs the links without invalidating.
  auto setup = harness::Setup::Quick();
  auto off = MakeBed(SystemKind::kLorm, setup);
  setup.cache = true;
  auto on = MakeBed(SystemKind::kLorm, setup);
  for (NodeAddr a = 0; a < setup.nodes; a += 3) {
    off.service->FailNode(a);
    on.service->FailNode(a);
  }
  const auto alone = [](resource::MultiQuery q, std::size_t i) {
    q.subs = {q.subs[i]};
    return q;
  };
  // A failed route probes no directory; a truncated walk probes its root.
  const auto fails_to_route = [&](const resource::MultiQuery& query) {
    const auto r = off.service->Query(query);
    return r.stats.failed && r.stats.visited_nodes == 0;
  };
  Rng rng(67);
  resource::MultiQuery q;
  bool found = false;
  for (int tries = 0; tries < 100 && !found; ++tries) {
    q = off.workload->MakeRangeQuery(2, /*requester=*/1, RangeStyle::kFullSpan,
                                     rng);
    found = fails_to_route(alone(q, 0)) && fails_to_route(alone(q, 1));
  }
  ASSERT_TRUE(found) << "no query whose two sub-queries both fail to route";
  ASSERT_TRUE(on.service->Query(q).stats.failed);

  // Repeating the query, or asking either sub-query alone, resolves it again
  // (as many lookups as without the cache) and fails again.
  for (const auto& query : {q, alone(q, 0), alone(q, 1)}) {
    const auto r_on = on.service->Query(query);
    const auto r_off = off.service->Query(query);
    EXPECT_TRUE(r_on.stats.failed);
    EXPECT_EQ(r_on.stats.lookups, r_off.stats.lookups);
    EXPECT_EQ(r_on.per_sub, r_off.per_sub);
  }

  // Once Maintain has repaired the links, both sub-queries resolve and find
  // matches.
  off.service->Maintain();
  on.service->Maintain();
  for (const auto& query : {q, alone(q, 0), alone(q, 1)}) {
    const auto r_on = on.service->Query(query);
    const auto r_off = off.service->Query(query);
    EXPECT_FALSE(r_on.stats.failed);
    for (const auto& matches : r_off.per_sub) EXPECT_FALSE(matches.empty());
    EXPECT_EQ(r_on.per_sub, r_off.per_sub);
    EXPECT_EQ(r_on.providers, r_off.providers);
  }
}

}  // namespace
}  // namespace lorm
