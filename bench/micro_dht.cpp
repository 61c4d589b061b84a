// Microbenchmarks (google-benchmark): the DHT substrates and hash layer.
//
// Not a paper figure — these measure the simulator itself (lookups/second,
// join cost, hashing throughput), which bounds how large an experiment the
// harness can run.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "chord/chord.hpp"
#include "chord_reference.hpp"
#include "common/hashing.hpp"
#include "common/random.hpp"
#include "common/sha1.hpp"
#include "cycloid/cycloid.hpp"
#include "harness/batch_lookup.hpp"

namespace {

using namespace lorm;

void BM_Sha1Hash64(benchmark::State& state) {
  std::string key = "attr-key-0123456789";
  std::uint64_t sink = 0;
  for (auto _ : state) {
    key[0] = static_cast<char>('a' + (sink & 15));
    sink ^= Sha1::Hash64(key);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Sha1Hash64);

void BM_ConsistentHash(benchmark::State& state) {
  const ConsistentHash ch(32);
  std::uint64_t sink = 1;
  for (auto _ : state) {
    sink = ch(sink);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ConsistentHash);

void BM_LocalityPreservingHash(benchmark::State& state) {
  const LocalityPreservingHash lph(32, 1.0, 1000.0);
  Rng rng(1);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sink ^= lph(rng.NextDouble(1.0, 1000.0));
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LocalityPreservingHash);

void BM_ChordLookup(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  chord::Config cfg;
  cfg.bits = 24;
  auto ring = chord::MakeRing(n, cfg, /*deterministic_ids=*/false);
  const auto members = ring.Members();
  Rng rng(7);
  std::uint64_t hops = 0;
  for (auto _ : state) {
    const auto res = ring.Lookup(rng.NextBelow(ring.space()),
                                 members[rng.NextBelow(members.size())]);
    hops += res.hops;
  }
  benchmark::DoNotOptimize(hops);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["avg_hops"] =
      static_cast<double>(hops) / static_cast<double>(state.iterations());
  // time/iteration is ns/lookup; this inverse-rate counter is sec/hop.
  state.counters["per_hop"] =
      benchmark::Counter(static_cast<double>(hops),
                         benchmark::Counter::kIsRate |
                             benchmark::Counter::kInvert);
}
BENCHMARK(BM_ChordLookup)->Arg(256)->Arg(2048)->Arg(16384);

void BM_CycloidLookup(benchmark::State& state) {
  const auto d = static_cast<unsigned>(state.range(0));
  cycloid::Config cfg;
  cfg.dimension = d;
  auto net = cycloid::MakeCycloid((std::size_t{1} << d) * d, cfg);
  const auto members = net.Members();
  Rng rng(7);
  std::uint64_t hops = 0;
  for (auto _ : state) {
    const cycloid::CycloidId key{
        static_cast<unsigned>(rng.NextBelow(d)),
        rng.NextBelow(std::uint64_t{1} << d)};
    const auto res = net.Lookup(key, members[rng.NextBelow(members.size())]);
    hops += res.hops;
  }
  benchmark::DoNotOptimize(hops);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["avg_hops"] =
      static_cast<double>(hops) / static_cast<double>(state.iterations());
  state.counters["per_hop"] =
      benchmark::Counter(static_cast<double>(hops),
                         benchmark::Counter::kIsRate |
                             benchmark::Counter::kInvert);
}
BENCHMARK(BM_CycloidLookup)->Arg(6)->Arg(8)->Arg(10);

bool SameLookup(const chord::LookupResult& a, const chord::LookupResult& b) {
  return a.ok == b.ok && a.key == b.key && a.owner == b.owner &&
         a.hops == b.hops && a.path == b.path;
}

/// The steady-state routing loop the discovery services actually run:
/// LookupInto with a caller-owned result reused across queries — no hash
/// probes (cached finger IDs) and no allocations after warm-up.
void BM_ChordLookupScratch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  chord::Config cfg;
  cfg.bits = 24;
  auto ring = chord::MakeRing(n, cfg, /*deterministic_ids=*/false);
  const auto members = ring.Members();
  // Micro-assert: the slab walk must return bit-identical LookupResults to
  // the address-keyed reference walk (tests/chord_reference.hpp) before we
  // time it.
  {
    Rng check_rng(13);
    chord::LookupResult got;
    for (int i = 0; i < 200; ++i) {
      const chord::Key key = check_rng.NextBelow(ring.space());
      const NodeAddr origin = members[check_rng.NextBelow(members.size())];
      ring.LookupInto(key, origin, got);
      const auto want = chord::ReferenceChordLookup(ring, key, origin);
      if (!SameLookup(got, want.result)) {
        state.SkipWithError("LookupInto disagrees with reference walk");
        return;
      }
    }
  }
  Rng rng(7);
  chord::LookupResult res;
  std::uint64_t hops = 0;
  for (auto _ : state) {
    ring.LookupInto(rng.NextBelow(ring.space()),
                    members[rng.NextBelow(members.size())], res);
    hops += res.hops;
  }
  benchmark::DoNotOptimize(hops);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["avg_hops"] =
      static_cast<double>(hops) / static_cast<double>(state.iterations());
  // time/iteration is ns/lookup; this inverse-rate counter is sec/hop.
  state.counters["per_hop"] =
      benchmark::Counter(static_cast<double>(hops),
                         benchmark::Counter::kIsRate |
                             benchmark::Counter::kInvert);
}
BENCHMARK(BM_ChordLookupScratch)->Arg(256)->Arg(2048)->Arg(16384);

/// The batched, software-pipelined engine over the same request pattern the
/// Scratch loop times: 16 walks in flight, each hop prefetched a lane round
/// ahead while the other walks execute. One benchmark iteration routes the
/// whole pre-generated pool; time/iteration divided by the pool size is the
/// batched ns/lookup. `batch_speedup` is sequential-vs-batched measured on
/// the spot (chrono over the same pool), so the headline ratio survives in
/// the JSON even when only this benchmark is run.
void BM_ChordLookupBatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  chord::Config cfg;
  cfg.bits = 24;
  auto ring = chord::MakeRing(n, cfg, /*deterministic_ids=*/false);
  const auto members = ring.Members();

  const std::size_t kPool = 8192;
  std::vector<harness::BatchLookupEngine<chord::ChordRing>::Request> reqs;
  reqs.reserve(kPool);
  Rng rng(7);
  for (std::size_t i = 0; i < kPool; ++i) {
    reqs.push_back({rng.NextBelow(ring.space()),
                    members[rng.NextBelow(members.size())]});
  }

  // 16 lanes: a fresh Chord ring reads only the header line (successor(0)
  // cached inside it) and the finger-extent tail, both at addresses
  // computed from the slot index, so the one prefetch issued right after
  // each step covers everything — the prefetch-to-use distance is a full
  // round of lanes. 16 lanes already put ~10 independent misses in flight.
  harness::BatchLookupEngine<chord::ChordRing> engine(16);
  // Micro-assert: the pipelined walks must return bit-identical results to
  // the plain sequential walk before we time anything.
  {
    chord::LookupResult want;
    bool ok = true;
    engine.Run(ring, reqs.data(), 512,
               [&](std::size_t i, const chord::LookupResult& got) {
                 ring.LookupInto(reqs[i].key, reqs[i].origin, want);
                 ok = ok && SameLookup(got, want) &&
                      got.cache_hits == want.cache_hits;
               });
    if (!ok) {
      state.SkipWithError("batch engine disagrees with sequential walk");
      return;
    }
  }

  // Calibration: sequential vs batched over the identical pool, so the
  // speedup is computed from the same requests on the same warm slab.
  double seq_ns = 0;
  double batch_ns = 0;
  {
    chord::LookupResult res;
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& req : reqs) ring.LookupInto(req.key, req.origin, res);
    const auto t1 = std::chrono::steady_clock::now();
    std::uint64_t sink = 0;
    engine.Run(ring, reqs.data(), reqs.size(),
               [&](std::size_t, const chord::LookupResult& r) {
                 sink += r.hops;
               });
    const auto t2 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(sink);
    seq_ns = std::chrono::duration<double, std::nano>(t1 - t0).count() /
             static_cast<double>(kPool);
    batch_ns = std::chrono::duration<double, std::nano>(t2 - t1).count() /
               static_cast<double>(kPool);
  }

  std::uint64_t hops = 0;
  for (auto _ : state) {
    engine.Run(ring, reqs.data(), reqs.size(),
               [&](std::size_t, const chord::LookupResult& r) {
                 hops += r.hops;
               });
  }
  benchmark::DoNotOptimize(hops);
  const auto items =
      static_cast<std::int64_t>(state.iterations() * kPool);
  state.SetItemsProcessed(items);
  state.counters["avg_hops"] =
      static_cast<double>(hops) / static_cast<double>(items);
  state.counters["per_hop"] =
      benchmark::Counter(static_cast<double>(hops),
                         benchmark::Counter::kIsRate |
                             benchmark::Counter::kInvert);
  // sec/lookup as an inverse rate (time/iteration here is ns per pool run).
  state.counters["per_lookup"] =
      benchmark::Counter(static_cast<double>(items),
                         benchmark::Counter::kIsRate |
                             benchmark::Counter::kInvert);
  state.counters["batch_speedup"] = batch_ns > 0 ? seq_ns / batch_ns : 0;
}
BENCHMARK(BM_ChordLookupBatch)->Arg(256)->Arg(2048)->Arg(16384)->Arg(131072);

void BM_CycloidLookupScratch(benchmark::State& state) {
  const auto d = static_cast<unsigned>(state.range(0));
  cycloid::Config cfg;
  cfg.dimension = d;
  auto net = cycloid::MakeCycloid((std::size_t{1} << d) * d, cfg);
  const auto members = net.Members();
  // Micro-assert: routing must terminate at the sector owner on a full,
  // churn-free network, and agree with the allocating entry point.
  {
    Rng check_rng(13);
    cycloid::LookupResult got;
    for (int i = 0; i < 200; ++i) {
      const cycloid::CycloidId key{
          static_cast<unsigned>(check_rng.NextBelow(d)),
          check_rng.NextBelow(std::uint64_t{1} << d)};
      const NodeAddr origin = members[check_rng.NextBelow(members.size())];
      net.LookupInto(key, origin, got);
      if (!got.ok || got.owner != net.OwnerOf(key)) {
        state.SkipWithError("LookupInto missed the sector owner");
        return;
      }
      const auto ref = net.Lookup(key, origin);
      if (got.ok != ref.ok || got.owner != ref.owner ||
          got.hops != ref.hops || got.path != ref.path) {
        state.SkipWithError("LookupInto disagrees with Lookup");
        return;
      }
    }
  }
  Rng rng(7);
  cycloid::LookupResult res;
  std::uint64_t hops = 0;
  for (auto _ : state) {
    const cycloid::CycloidId key{
        static_cast<unsigned>(rng.NextBelow(d)),
        rng.NextBelow(std::uint64_t{1} << d)};
    net.LookupInto(key, members[rng.NextBelow(members.size())], res);
    hops += res.hops;
  }
  benchmark::DoNotOptimize(hops);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["avg_hops"] =
      static_cast<double>(hops) / static_cast<double>(state.iterations());
  state.counters["per_hop"] =
      benchmark::Counter(static_cast<double>(hops),
                         benchmark::Counter::kIsRate |
                             benchmark::Counter::kInvert);
}
BENCHMARK(BM_CycloidLookupScratch)->Arg(6)->Arg(8)->Arg(10);

/// Reference implementation of the distinct-live-link count via the
/// quadratic std::find dedup that ChordRing::Outlinks replaced with
/// sort+unique: every live entry of NeighborsOf, counted once.
std::size_t ReferenceOutlinks(const chord::ChordRing& ring, NodeAddr addr) {
  std::vector<NodeAddr> distinct;
  for (NodeAddr a : ring.NeighborsOf(addr)) {
    if (!ring.Contains(a)) continue;  // NeighborsOf may include stale links
    if (std::find(distinct.begin(), distinct.end(), a) == distinct.end()) {
      distinct.push_back(a);
    }
  }
  return distinct.size();
}

void BM_ChordOutlinks(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  chord::Config cfg;
  cfg.bits = 24;
  cfg.successor_list = 16;  // longer list makes the dedup cost visible
  auto ring = chord::MakeRing(n, cfg, /*deterministic_ids=*/false);
  const auto members = ring.Members();
  // Micro-assert: the optimized sort+unique path must agree with the
  // reference dedup on every member before we time it.
  for (NodeAddr addr : members) {
    if (ring.Outlinks(addr) != ReferenceOutlinks(ring, addr)) {
      state.SkipWithError("Outlinks disagrees with reference dedup");
      return;
    }
  }
  std::size_t i = 0;
  std::size_t sink = 0;
  for (auto _ : state) {
    sink += ring.Outlinks(members[i]);
    if (++i == members.size()) i = 0;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ChordOutlinks)->Arg(256)->Arg(2048);

void BM_ChordOwnerOf(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  chord::Config cfg;
  cfg.bits = 24;
  auto ring = chord::MakeRing(n, cfg, /*deterministic_ids=*/false);
  Rng rng(11);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sink ^= ring.OwnerOf(rng.NextBelow(ring.space()));
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ChordOwnerOf)->Arg(256)->Arg(2048)->Arg(16384);

void BM_ChordChurnCycle(benchmark::State& state) {
  chord::Config cfg;
  cfg.bits = 20;
  auto ring = chord::MakeRing(1024, cfg, false);
  NodeAddr next = 100000;
  for (auto _ : state) {
    ring.AddNode(next);
    ring.RemoveNode(next);
    ++next;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ChordChurnCycle);

// One StabilizeAll after a burst of `events` leaves and joins (alternating,
// so n stays put) on the Quick (n = 384, 9 bits) and paper-scale (n = 2048,
// a full 11-bit ring) rings. Below events x (bits + successor_list + 3) = n
// the round repairs only the moved arcs and its time grows with the burst;
// from there on it is one sweep of the ring, whose time does not. The two
// sides should meet near the cutoff (22 vs 24 events at n = 384, 112 vs
// 114 at n = 2048) if it sits where the sweep overtakes the repair.
void BM_ChordStabilizeAfterBurst(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto events = static_cast<int>(state.range(1));
  chord::Config cfg;
  cfg.bits = n == 2048 ? 11 : 9;
  auto ring = chord::MakeRing(n, cfg, /*deterministic_ids=*/n == 2048);
  Rng rng(23);
  NodeAddr next = 100000;
  for (auto _ : state) {
    state.PauseTiming();
    for (int e = 0; e < events; e += 2) {
      const auto members = ring.Members();
      ring.RemoveNode(members[rng.NextBelow(members.size())]);
      ring.AddNode(next++);
    }
    state.ResumeTiming();
    ring.StabilizeAll();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ChordStabilizeAfterBurst)
    ->ArgsProduct({{384}, {2, 8, 16, 22, 24, 64}})
    ->ArgsProduct({{2048}, {2, 16, 64, 112, 114, 256}})
    ->Unit(benchmark::kMicrosecond);

void BM_CycloidChurnCycle(benchmark::State& state) {
  cycloid::Config cfg;
  cfg.dimension = 8;
  auto net = cycloid::MakeCycloid(1024, cfg);
  NodeAddr next = 100000;
  for (auto _ : state) {
    net.AddNode(next);
    net.RemoveNode(next);
    ++next;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CycloidChurnCycle);

}  // namespace

BENCHMARK_MAIN();
