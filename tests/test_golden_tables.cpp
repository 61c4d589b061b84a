// Golden-output regression tests for the figure benches.
//
// Every figure table is a deterministic function of the seeded workload and
// the overlays' routing behaviour: PR 1 made the query replay bit-identical
// for any --jobs value, and this file turns that property into a regression
// oracle. It replays the exact fig4a-quick and fig5a-quick sweeps
// (harness::Setup::Quick, the same seeds and query counts the benches use)
// and compares a SHA-1 of the measured series against a committed golden
// value. A data-layout or routing change that silently alters a single hop
// count fails here in tier-1 instead of corrupting the emitted figures.
//
// When a change *intentionally* alters routing behaviour, update the golden
// constants from the canonical serialization this test prints on mismatch
// (and say so in the PR — the figures change with it).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/sha1.hpp"
#include "harness/experiments.hpp"
#include "harness/setup.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resource/workload.hpp"

namespace lorm {
namespace {

// Committed golden hashes of the quick-mode sweeps (jobs-independent).
//
// The *four-system* hashes predate the single-hop system and are pinned to
// the explicit four-kind prefix of AllSystems(): adding D1HT must not move
// a single byte of the original systems' measurements (each system builds
// and replays independently). The *five-system* hashes cover the full
// AllSystems() sweeps the benches now emit.
constexpr const char* kGoldenFig4a = "628a342e8eb1983fb99819cdcc65e57cde6401f9";
constexpr const char* kGoldenFig5a = "51f7334b86b3587d731fbd0988b41d26a4d9a7c7";
constexpr const char* kGoldenFig4aFive =
    "1f29df17041145f41a15ac51e35384825fc05027";
constexpr const char* kGoldenFig5aFive =
    "704d357ae4dc4d75f3caf3878a814e65ac35181b";

const std::vector<harness::SystemKind> kFourSystems{
    harness::SystemKind::kLorm, harness::SystemKind::kMercury,
    harness::SystemKind::kSword, harness::SystemKind::kMaan};

/// Replays one quick-mode sweep (the RunQuerySweep configuration of
/// bench/fig45_common.hpp) and serializes the exact integer measurements —
/// the quantities every printed table cell is derived from.
std::string SweepSerialization(const std::vector<harness::SystemKind>& kinds,
                               bool range, std::size_t jobs) {
  const harness::Setup setup = harness::Setup::Quick();
  const resource::Workload workload(setup.MakeWorkloadConfig());
  const std::vector<std::size_t> attr_counts{1, 3, 5};

  std::ostringstream out;
  for (const auto kind : kinds) {
    const auto service = harness::BuildPopulated(kind, setup, workload);
    for (const std::size_t attrs : attr_counts) {
      harness::QueryExperimentConfig cfg;
      cfg.requesters = 20;  // the benches' quick-mode 20 x 10 replay
      cfg.queries_per_requester = 10;
      cfg.attrs_per_query = attrs;
      cfg.range = range;
      cfg.style = resource::RangeStyle::kBounded;
      cfg.seed = 0xF16u + attrs;  // same queries for every system
      cfg.jobs = jobs;
      const auto r = harness::RunQueries(*service, workload, cfg);
      out << harness::SystemName(kind) << ",attrs=" << attrs
          << ",queries=" << r.queries << ",failures=" << r.failures
          << ",hops=" << static_cast<std::uint64_t>(r.total_hops)
          << ",visited=" << static_cast<std::uint64_t>(r.total_visited)
          << "\n";
    }
  }
  return out.str();
}

void ExpectGolden(const char* golden, const std::string& serialization) {
  const std::string hash = Sha1::ToHex(Sha1::Hash(serialization));
  EXPECT_EQ(hash, golden)
      << "measured series diverged from the committed golden table.\n"
      << "If the change is intentional, update the constant to " << hash
      << "\nCanonical serialization:\n"
      << serialization;
}

TEST(GoldenTables, Fig4aQuickSweepMatchesCommittedHash) {
  ExpectGolden(kGoldenFig4a,
               SweepSerialization(kFourSystems, /*range=*/false, /*jobs=*/1));
}

TEST(GoldenTables, Fig5aQuickSweepMatchesCommittedHash) {
  ExpectGolden(kGoldenFig5a,
               SweepSerialization(
                   {harness::SystemKind::kMaan, harness::SystemKind::kMercury},
                   /*range=*/true, /*jobs=*/1));
}

TEST(GoldenTables, Fig4aFiveSystemSweepMatchesCommittedHash) {
  ExpectGolden(kGoldenFig4aFive,
               SweepSerialization(harness::AllSystems(), /*range=*/false,
                                  /*jobs=*/1));
}

TEST(GoldenTables, Fig5aFiveCurveSweepMatchesCommittedHash) {
  // The fig5a bench's kind list: the system-wide walkers, D1HT appended.
  ExpectGolden(kGoldenFig5aFive,
               SweepSerialization(
                   {harness::SystemKind::kMaan, harness::SystemKind::kMercury,
                    harness::SystemKind::kD1ht},
                   /*range=*/true, /*jobs=*/1));
}

// The four-system serialization must be byte-for-byte the prefix of the
// five-system one: registering a fifth system cannot perturb the originals.
TEST(GoldenTables, FourSystemRowsAreAPrefixOfTheFiveSystemSweep) {
  const std::string four = SweepSerialization(kFourSystems, false, 1);
  const std::string five = SweepSerialization(harness::AllSystems(), false, 1);
  ASSERT_LT(four.size(), five.size());
  EXPECT_EQ(five.compare(0, four.size(), four), 0);
  EXPECT_EQ(five.substr(four.size()).rfind("D1HT,", 0), 0u);
}

// The golden hash must not depend on the worker count — the determinism
// property PR 1 established, re-checked here where it guards the goldens.
TEST(GoldenTables, Fig4aSweepIsJobsIndependent) {
  EXPECT_EQ(SweepSerialization({harness::SystemKind::kLorm}, false, 1),
            SweepSerialization({harness::SystemKind::kLorm}, false, 2));
}

// ---- Per-query executor golden ---------------------------------------------
//
// The sweep hashes above fold each sweep into totals of hops, visited nodes
// and failures, so a reordered probe, a moved sub_costs entry or a lost
// trace field would not move them. This golden pins everything one Query()
// returns or traces, query by query: the providers, every sub-query's
// matches, every QueryStats field (sub_costs and replica_hits included) and
// the JSON trace line with its wall-time fields zeroed. It covers every
// system x plan {off, on} x cache {off, on} at Setup::Quick() over a fixed
// query mix, plus cache-on legs at replicas 1 and 3 replayed after a fixed
// sequence of graceful leaves, joins, crashes, a Maintain and further
// crashes (handoff, replica reads, failed walks and MAAN's crash-time twin
// reconciliation). The constants were computed on the per-service query
// loops that the shared executor (discovery/query_executor.hpp) replaced.

/// Exact text of an attribute value (numbers at round-trip precision).
std::string ValueText(const resource::AttrValue& v) {
  if (v.kind() == resource::ValueKind::kText) return v.text();
  std::ostringstream os;
  os << std::setprecision(17) << v.num();
  return os.str();
}

void AppendResult(std::ostream& out, const discovery::QueryResult& r) {
  out << "providers=";
  for (const NodeAddr p : r.providers) out << p << ' ';
  for (std::size_t i = 0; i < r.per_sub.size(); ++i) {
    out << "\nsub" << i << '=';
    for (const auto& info : r.per_sub[i]) {
      out << info.attr << ':' << ValueText(info.value) << '@' << info.provider
          << ' ';
    }
  }
  const discovery::QueryStats& s = r.stats;
  out << "\nlookups=" << s.lookups << ",hops=" << s.dht_hops
      << ",visited=" << s.visited_nodes << ",walk=" << s.walk_steps
      << ",replica_hits=" << s.replica_hits << ",failed=" << s.failed
      << ",sub_costs=";
  for (const HopCount c : s.sub_costs) out << c << ' ';
  out << '\n';
}

/// The fixed query mix: random 1- and 3-attribute point queries (whose
/// values almost never match), 1- and 3-attribute point queries built from
/// one provider's advertised tuples (which do), 2-attribute bounded ranges,
/// each range reversed (a joined-cache hit in another sub order) and its
/// first sub-query alone (a per-sub cache hit). Requesters are drawn from
/// `members`.
std::vector<resource::MultiQuery> ExecutorQueryMix(
    const resource::Workload& workload,
    const std::vector<resource::ResourceInfo>& infos,
    const std::vector<NodeAddr>& members) {
  std::map<NodeAddr, std::vector<resource::ResourceInfo>> by_provider;
  for (const auto& info : infos) by_provider[info.provider].push_back(info);

  Rng rng(0xE7EC);
  std::vector<resource::MultiQuery> qs;
  for (int round = 0; round < 4; ++round) {
    const NodeAddr requester = members[rng.NextBelow(members.size())];
    qs.push_back(workload.MakePointQuery(1, requester, rng));
    qs.push_back(workload.MakePointQuery(3, requester, rng));

    const NodeAddr provider = infos[rng.NextBelow(infos.size())].provider;
    resource::MultiQuery matching;
    matching.requester = requester;
    for (const auto& info : by_provider[provider]) {
      const bool seen = std::any_of(
          matching.subs.begin(), matching.subs.end(),
          [&](const resource::SubQuery& s) { return s.attr == info.attr; });
      if (seen) continue;
      matching.subs.push_back(
          {info.attr, resource::ValueRange::Point(info.value)});
      if (matching.subs.size() == 3) break;
    }
    qs.push_back(matching);
    matching.subs.resize(1);
    qs.push_back(matching);

    resource::MultiQuery range = workload.MakeRangeQuery(
        2, requester, resource::RangeStyle::kBounded, rng);
    qs.push_back(range);
    std::reverse(range.subs.begin(), range.subs.end());
    qs.push_back(range);
    range.subs.resize(1);
    qs.push_back(range);
  }
  return qs;
}

struct ExecutorLeg {
  bool plan = false;
  bool cache = false;
  std::size_t replicas = 1;
  bool churn = false;
};

/// Builds one leg's service, replays the query mix twice (the second pass
/// hits the caches) and serializes every result and trace.
void AppendExecutorLeg(std::ostream& out, harness::SystemKind kind,
                       const ExecutorLeg& leg) {
  harness::Setup setup = harness::Setup::Quick();
  setup.plan = leg.plan;
  setup.cache = leg.cache;
  setup.replicas = leg.replicas;
  const resource::Workload workload(setup.MakeWorkloadConfig());
  auto service = harness::MakeService(kind, setup, workload.registry());
  const auto infos = harness::GridInfos(setup, workload);
  harness::AdvertiseAll(*service, infos);
  if (leg.churn) {
    for (const NodeAddr a : {5u, 77u, 160u}) service->LeaveNode(a);
    for (const NodeAddr a : {1000u, 1001u}) ASSERT_TRUE(service->JoinNode(a));
    for (const NodeAddr a : {12u, 13u, 201u, 202u, 333u}) service->FailNode(a);
    service->Maintain();
    // Crashes after the last maintenance round leave stale links behind,
    // so some lookups skip dead links and some walks fail.
    for (NodeAddr a = 3; a < setup.nodes; a += 16) {
      if (service->HasNode(a)) service->FailNode(a);
    }
  }

  const auto queries = ExecutorQueryMix(workload, infos, service->Nodes());
  obs::MemoryTraceSink sink;
  obs::SetGlobalTraceSink(&sink);
  discovery::QueryScratch scratch;  // reused, as the replay workers do
  std::uint64_t id = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& q : queries) {
      discovery::QueryResult r;
      {
        const obs::QueryTraceScope scope(service->name(), id++);
        r = service->Query(q, scratch);
      }
      AppendResult(out, r);
    }
  }
  obs::SetGlobalTraceSink(nullptr);
  for (obs::QueryTrace& t : sink.Take()) {
    t.duration_ns = 0;
    for (auto& sub : t.subs) {
      for (auto& l : sub.lookups) l.duration_ns = 0;
    }
    obs::JsonLinesTraceSink::WriteJson(out, t);
    out << '\n';
  }
  out << "load=";
  for (const double v : service->QueryLoadCounts()) out << v << ' ';
  out << '\n';
}

std::string ExecutorSerialization(harness::SystemKind kind) {
  std::ostringstream out;
  for (const bool plan : {false, true}) {
    for (const bool cache : {false, true}) {
      out << "plan=" << plan << ",cache=" << cache << '\n';
      AppendExecutorLeg(out, kind, {plan, cache, 1, false});
    }
  }
  for (const std::size_t replicas : {1u, 3u}) {
    for (const bool plan : {false, true}) {
      out << "churn,replicas=" << replicas << ",plan=" << plan << '\n';
      AppendExecutorLeg(out, kind, {plan, true, replicas, true});
    }
  }
  return out.str();
}

class ExecutorGolden : public ::testing::TestWithParam<harness::SystemKind> {};

TEST_P(ExecutorGolden, EveryResultAndTraceMatchesCommittedHash) {
  static const std::map<harness::SystemKind, const char*> kGolden{
      {harness::SystemKind::kLorm,
       "ce16475e6ab6d887d5163f664c72e5a04b440d4b"},
      {harness::SystemKind::kMercury,
       "8d8a1ad1b280abc0a8e1d911a756334810af159e"},
      {harness::SystemKind::kSword,
       "737ea0e7b30a3d079a37a81f3be65b2a99b76b25"},
      {harness::SystemKind::kMaan,
       "7093b4140bac89b35496d79301ad5e5ff814db7c"},
      {harness::SystemKind::kD1ht,
       "2064d0b3dfe93541e8bf9dbc1b511fa89a11dc29"},
  };
  ExpectGolden(kGolden.at(GetParam()), ExecutorSerialization(GetParam()));
}

/// The churn legs again with the planner and every cache off, at replicas
/// 1 and 3: classic queries on stale rings, the case in which the executor
/// steps each query's root lookups together. Lookups skip dead links on
/// Chord and Cycloid, and some of LORM's cluster walks fail. The constants
/// were computed on the executor that routed one lookup after another, so
/// overlapped routing must reproduce it byte for byte.
std::string StaleRingSerialization(harness::SystemKind kind) {
  std::ostringstream out;
  for (const std::size_t replicas : {1u, 3u}) {
    out << "churn,replicas=" << replicas << ",plan=0,cache=0\n";
    AppendExecutorLeg(out, kind, {false, false, replicas, true});
  }
  return out.str();
}

TEST_P(ExecutorGolden, StaleRingsWithCachesOffMatchCommittedHash) {
  static const std::map<harness::SystemKind, const char*> kGolden{
      {harness::SystemKind::kLorm,
       "efaffa572ee28b3e7f865a9a9147710153fb4733"},
      {harness::SystemKind::kMercury,
       "a25be6ce6d3c1667354653e2392819829e14e897"},
      {harness::SystemKind::kSword,
       "abdeb961b3a40928c059c5308cdb9b79c3f217c9"},
      {harness::SystemKind::kMaan,
       "de742e1f85f6aeb66f3711bc61a87ff78f8f90b4"},
      {harness::SystemKind::kD1ht,
       "d9047e3cf7f83a3a1a4d1725d0380866c5338500"},
  };
  ExpectGolden(kGolden.at(GetParam()), StaleRingSerialization(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllSystems, ExecutorGolden,
                         ::testing::ValuesIn(harness::AllSystems()),
                         [](const auto& info) {
                           return std::string(harness::SystemName(info.param));
                         });

// ---- Membership side effects ------------------------------------------------
//
// ExecutorGolden pins query answers after churn; this pins what the churn
// itself does, per system: each join, leave, crash and maintenance round's
// return value, network size, stored pieces, replication work and
// maintenance messages, and at the end the members, directory sizes,
// outlinks, every nonzero registry counter and the flight recorder's event
// stream (joins, leaves, crashes, handoffs, replica repairs and cache
// invalidations, in order). The script joins a node the full Quick Cycloid
// refuses, crashes a burst of members, and then takes a leave and a crash
// of earlier joiners; every accepted joiner advertises one tuple. The
// constants were computed on the per-service membership code that
// DirectoryService's shared path replaced. Mercury's was recomputed when
// DirectoryService took the result-cache invalidation over from the hubs'
// observers (one per event instead of one per hub): its serialization lost
// only the 1950 redundant cache-invalidate events (2010 -> 60), each of
// which had dropped nothing, and kept every other line, in order.

void AppendMembershipLeg(std::ostream& out, harness::SystemKind kind,
                         std::size_t replicas, bool cache) {
  harness::Setup setup = harness::Setup::Quick();
  setup.replicas = replicas;
  setup.cache = cache;
  const resource::Workload workload(setup.MakeWorkloadConfig());
  auto service = harness::MakeService(kind, setup, workload.registry());
  const auto infos = harness::GridInfos(setup, workload);
  harness::AdvertiseAll(*service, infos);

  obs::Registry::Global().Reset();
  obs::FlightRecorder::Global().Reset();
  obs::SetMetricsEnabled(true);
  obs::SetFlightEnabled(true);

  // Each op stamps its flight events with its own index as the sim time.
  double op = 0;
  const auto state = [&] {
    const discovery::ReplicationStats moved = service->ReplicationWork();
    out << ",size=" << service->NetworkSize()
        << ",pieces=" << service->TotalInfoPieces()
        << ",moved=" << moved.entries_moved << '/' << moved.bytes_moved
        << ",maint=" << service->MaintenanceMessages() << '\n';
  };
  const auto join = [&](NodeAddr a) {
    obs::SetFlightSimTime(++op);
    const bool joined = service->JoinNode(a);
    out << "join " << a << '=' << joined;
    if (joined) {
      resource::ResourceInfo info = infos[a % infos.size()];
      info.provider = a;
      out << ",advertise=" << service->Advertise(info);
    }
    state();
  };
  const auto leave = [&](NodeAddr a) {
    obs::SetFlightSimTime(++op);
    service->LeaveNode(a);
    out << "leave " << a;
    state();
  };
  const auto crash = [&](NodeAddr a) {
    obs::SetFlightSimTime(++op);
    service->FailNode(a);
    out << "crash " << a;
    state();
  };
  const auto maintain = [&] {
    obs::SetFlightSimTime(++op);
    service->Maintain();
    out << "maintain";
    state();
  };

  // Every member named below holds directory entries on all five systems
  // at replicas 1, so each leave hands off and each crash loses something.
  join(1000);  // LORM's Quick Cycloid is full: refused there
  leave(57);
  leave(116);
  crash(153);
  crash(243);
  join(1001);
  join(1002);
  maintain();
  for (NodeAddr a = 20; a < setup.nodes; a += 36) crash(a);  // 11 members
  join(1003);
  join(1004);
  leave(217);
  leave(327);
  leave(1001);
  crash(1002);
  crash(299);
  maintain();

  out << "nodes=";
  for (const NodeAddr a : service->Nodes()) out << a << ' ';
  out << "\ndirectories=";
  for (const double v : service->DirectorySizes()) out << v << ' ';
  out << "\noutlinks=";
  for (const double v : service->OutlinkCounts()) out << v << ' ';
  out << "\nmaintenance_bytes=" << service->MaintenanceBytes() << '\n';
  for (const auto& [name, value] : obs::Registry::Global().Snapshot()) {
    if (value != 0) out << name << '=' << value << '\n';
  }
  const obs::FlightRecorder& flight = obs::FlightRecorder::Global();
  EXPECT_LE(flight.total(), flight.capacity()) << "the flight ring wrapped";
  flight.WriteJsonLines(out);

  obs::SetMetricsEnabled(false);
  obs::SetFlightEnabled(false);
  obs::SetFlightSimTime(0.0);
}

std::string MembershipSerialization(harness::SystemKind kind) {
  std::ostringstream out;
  for (const std::size_t replicas : {1u, 3u}) {
    for (const bool cache : {false, true}) {
      out << "replicas=" << replicas << ",cache=" << cache << '\n';
      AppendMembershipLeg(out, kind, replicas, cache);
    }
  }
  return out.str();
}

class MembershipGolden
    : public ::testing::TestWithParam<harness::SystemKind> {};

TEST_P(MembershipGolden, EverySideEffectMatchesCommittedHash) {
  static const std::map<harness::SystemKind, const char*> kGolden{
      {harness::SystemKind::kLorm,
       "49064c72892ce731639c75705f9780e8419e246c"},
      {harness::SystemKind::kMercury,
       "85fa03dd9008b06535e46bc5ca8ad9413215962e"},
      {harness::SystemKind::kSword,
       "5039a2ac68cc9658ba0674d274ed8d36d8008810"},
      {harness::SystemKind::kMaan,
       "45fd6bb5c3099217e32e6cdc1e46d28c4a30e995"},
      {harness::SystemKind::kD1ht,
       "f3e2c8a8407981525f775b2176eb136c47cfc9ff"},
  };
  ExpectGolden(kGolden.at(GetParam()), MembershipSerialization(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllSystems, MembershipGolden,
                         ::testing::ValuesIn(harness::AllSystems()),
                         [](const auto& info) {
                           return std::string(harness::SystemName(info.param));
                         });

}  // namespace
}  // namespace lorm
