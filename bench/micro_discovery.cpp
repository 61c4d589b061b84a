// Microbenchmarks (google-benchmark): the discovery layer.
//
// Measures advertise and query throughput of each system at the Small
// configuration, plus the requester-side dedup and join. Not a paper
// figure.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "discovery/join.hpp"
#include "discovery/maan_service.hpp"
#include "harness/experiments.hpp"
#include "harness/setup.hpp"

namespace {

using namespace lorm;
using harness::SystemKind;

struct Fixture {
  harness::Setup setup = harness::Setup::Small();
  std::unique_ptr<resource::Workload> workload;
  std::unique_ptr<discovery::DiscoveryService> service;

  explicit Fixture(SystemKind kind, bool plan = false) {
    setup.plan = plan;
    workload =
        std::make_unique<resource::Workload>(setup.MakeWorkloadConfig());
    service = harness::BuildPopulated(kind, setup, *workload);
  }
};

/// The benchmark argument is an index into harness::AllSystems().
SystemKind KindOf(std::int64_t arg) {
  return harness::AllSystems().at(static_cast<std::size_t>(arg));
}

/// One row per system of harness::AllSystems().
void EverySystem(benchmark::internal::Benchmark* b) {
  for (std::size_t i = 0; i < harness::AllSystems().size(); ++i) {
    b->Arg(static_cast<std::int64_t>(i));
  }
}

void SetLabel(benchmark::State& state) {
  state.SetLabel(harness::SystemName(KindOf(state.range(0))));
}

void BM_Advertise(benchmark::State& state) {
  Fixture f(KindOf(state.range(0)));
  SetLabel(state);
  Rng rng(5);
  for (auto _ : state) {
    resource::ResourceInfo info;
    info.attr = static_cast<AttrId>(rng.NextBelow(f.setup.attributes));
    info.value = f.workload->SampleValue(info.attr, rng);
    info.provider = static_cast<NodeAddr>(rng.NextBelow(f.setup.nodes));
    f.service->Advertise(info);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Advertise)->Apply(EverySystem);

void BM_PointQuery(benchmark::State& state) {
  Fixture f(KindOf(state.range(0)));
  SetLabel(state);
  Rng rng(6);
  for (auto _ : state) {
    const auto q = f.workload->MakePointQuery(
        3, static_cast<NodeAddr>(rng.NextBelow(f.setup.nodes)), rng);
    benchmark::DoNotOptimize(f.service->Query(q));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PointQuery)->Apply(EverySystem);

void BM_RangeQuery(benchmark::State& state) {
  Fixture f(KindOf(state.range(0)));
  SetLabel(state);
  Rng rng(7);
  for (auto _ : state) {
    const auto q = f.workload->MakeRangeQuery(
        3, static_cast<NodeAddr>(rng.NextBelow(f.setup.nodes)),
        resource::RangeStyle::kBounded, rng);
    benchmark::DoNotOptimize(f.service->Query(q));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RangeQuery)->Apply(EverySystem);

void BM_RangeQueryPlanned(benchmark::State& state) {
  // BM_RangeQuery's exact workload with the selectivity planner on — the
  // planner's end-to-end effect is this row against the row above.
  Fixture f(KindOf(state.range(0)), /*plan=*/true);
  SetLabel(state);
  Rng rng(7);
  for (auto _ : state) {
    const auto q = f.workload->MakeRangeQuery(
        3, static_cast<NodeAddr>(rng.NextBelow(f.setup.nodes)),
        resource::RangeStyle::kBounded, rng);
    benchmark::DoNotOptimize(f.service->Query(q));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RangeQueryPlanned)->Apply(EverySystem);

// ---- Per-phase costs -------------------------------------------------------
// A range sub-query decomposes into route (DHT lookup), directory scan
// (sorted-run range scan at each visited node) and intersect (provider-set
// join). The three phase benches below isolate each on MAAN's ring, so the
// planner's savings (fewer scans, smaller intersections) can be priced.

void BM_PhaseRoute(benchmark::State& state) {
  Fixture f(SystemKind::kMaan);
  const auto& maan =
      dynamic_cast<const discovery::MaanService&>(*f.service);
  const auto& ring = maan.overlay();
  Rng rng(9);
  chord::LookupResult res;
  for (auto _ : state) {
    const AttrId attr = static_cast<AttrId>(rng.NextBelow(f.setup.attributes));
    const auto v = f.workload->SampleValue(attr, rng);
    ring.LookupInto(maan.ValueKeyFor(attr, v),
                    static_cast<NodeAddr>(rng.NextBelow(f.setup.nodes)), res);
    benchmark::DoNotOptimize(res.owner);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PhaseRoute);

void BM_PhaseDirectoryScan(benchmark::State& state) {
  // Scans the attribute-record pile at an attribute root — the fattest
  // directory bucket any of the systems ever walks.
  Fixture f(SystemKind::kMaan);
  const auto& maan =
      dynamic_cast<const discovery::MaanService&>(*f.service);
  Rng rng(10);
  std::uint64_t hits = 0;
  for (auto _ : state) {
    const auto q = f.workload->MakeRangeQuery(
        1, static_cast<NodeAddr>(rng.NextBelow(f.setup.nodes)),
        resource::RangeStyle::kBounded, rng);
    const auto& sub = q.subs.front();
    const auto& schema = f.workload->registry().Get(sub.attr);
    const auto* dir = maan.directories().Find(
        maan.overlay().OwnerOf(maan.AttributeKeyFor(sub.attr)));
    if (dir != nullptr) {
      dir->ForEachMatch(sub.attr, schema.OrdinalOf(sub.range.lo),
                        schema.OrdinalOf(sub.range.hi),
                        [&](const auto&) { ++hits; });
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PhaseDirectoryScan);

void BM_PhaseIntersect(benchmark::State& state) {
  // Galloping provider-set intersection at the skew the planner produces:
  // a small accumulator against a large sub-query result.
  Rng rng(11);
  std::vector<NodeAddr> small_set, big_set;
  for (NodeAddr p = 0; p < 2000; ++p) {
    if (rng.NextBelow(100) < 2) small_set.push_back(p);
    if (rng.NextBelow(100) < 40) big_set.push_back(p);
  }
  std::vector<NodeAddr> acc, tmp;
  for (auto _ : state) {
    acc = small_set;
    discovery::IntersectSorted(acc, big_set, tmp);
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PhaseIntersect);

void BM_JoinProviders(benchmark::State& state) {
  Rng rng(8);
  std::vector<std::vector<resource::ResourceInfo>> per_sub(3);
  for (auto& sub : per_sub) {
    for (int i = 0; i < 200; ++i) {
      sub.push_back({0, resource::AttrValue::Number(1.0),
                     static_cast<NodeAddr>(rng.NextBelow(300))});
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(discovery::JoinProviders(per_sub));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_JoinProviders);

void BM_DedupMatches(benchmark::State& state) {
  // Sub-query raw matches as a walk appends them: one attribute, values
  // ascending, providers in random order. The argument is the match count:
  // about 24 per sub-query on the discovery benchmark's `range` workload,
  // 200 for a wide range. The iterations cycle through 256 lists, as
  // queries do, so the branch predictor cannot learn one list's sort.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(12);
  std::vector<std::vector<resource::ResourceInfo>> lists(256);
  for (auto& raw : lists) {
    for (std::size_t i = 0; i < n; ++i) {
      raw.push_back({0, resource::AttrValue::Number(static_cast<double>(i)),
                     static_cast<NodeAddr>(rng.NextBelow(2048))});
    }
  }
  std::vector<discovery::MatchKey> keys;
  std::vector<resource::ResourceInfo> out;
  std::size_t next = 0;
  for (auto _ : state) {
    discovery::DedupMatches(lists[next], keys, out);
    next = (next + 1) % lists.size();
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DedupMatches)->Arg(24)->Arg(200);

}  // namespace

BENCHMARK_MAIN();
