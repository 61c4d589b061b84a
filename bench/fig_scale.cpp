// Scaling study: hops/lookup and ns/lookup vs n over three decades
// (n = 2^10 .. 2^20), against the analysis curves the paper's Theorems
// 4.7/4.8 assume as per-lookup costs — log2(n)/2 for Chord, d for Cycloid.
//
// The paper evaluates at n = 2048, where the finite-size bias of the hop
// estimate is visible (measured Chord hops run above log2(n)/2 on small
// rings). Sweeping three decades shows the bias shrinking as n grows, and
// stresses the substrate where it actually hurts: at 10^6 nodes the slab no
// longer fits in cache and every hop is a DRAM round-trip. Each point also
// times the batched, software-pipelined lookup engine (--batch, default 16
// walks in flight) against the plain sequential walk, and cross-checks that
// both routed every request identically (same total hops, same owners).
//
// Networks are built with MakeRing/MakeCycloid, whose bulk path gives the
// converged state of n sequential joins + StabilizeAll without the O(n^2)
// per-join stabilization cost, and report ApproxMemoryBytes per point plus the
// process peak RSS at exit.
//
// Flags beyond the common set: --n=<nodes> runs a single point (CI smokes
// --n=65536 with --trace gated by lorm-analyze --expect). --quick caps the
// sweep at 65536 nodes; the full run reaches 1048576.
#include <sys/resource.h>

#include "analysis/theorems.hpp"
#include "chord/chord.hpp"
#include "cycloid/cycloid.hpp"
#include "fig_common.hpp"
#include "harness/batch_lookup.hpp"

namespace {

using namespace lorm;

/// One measured sweep point, sequential vs batched over the same requests.
struct ScalePoint {
  double avg_hops = 0;
  double seq_ns = 0;
  double batch_ns = 0;
  double mem_mb = 0;
  obs::LatencyTail tail;  ///< per-lookup wall time, sequential walk (ns)
};

double NowNs() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

unsigned BitsFor(std::size_t n) {
  unsigned bits = 0;
  while ((std::size_t{1} << bits) < n) ++bits;
  return bits + 4;  // headroom keeps the id space sparse enough for salting
}

/// Times `reqs` through `ring` sequentially (traced when a sink is
/// installed) and through the batch engine (untraced), cross-checking that
/// both walks routed identically. Aborts on divergence: the batch engine's
/// whole value rests on being byte-identical to the sequential walk.
template <typename Ring>
ScalePoint MeasurePoint(
    const Ring& ring, const char* trace_system,
    const std::vector<typename harness::BatchLookupEngine<Ring>::Request>& reqs,
    std::size_t batch) {
  ScalePoint p;
  typename Ring::LookupResult res;

  std::uint64_t seq_hops = 0;
  std::uint64_t seq_owner_sum = 0;
  const bool traced = obs::GetGlobalTraceSink() != nullptr;
  const std::uint64_t id_base =
      traced ? obs::ReserveQueryIds(reqs.size()) : 0;
  // Per-lookup tail: one boundary clock read per lookup (the delta between
  // consecutive reads is that lookup's wall time), folded into an HDR-style
  // histogram. The boundary read is the same clock the mean already pays,
  // so the p50 column stays comparable with seq ns.
  obs::LatencyHistogram hist;
  const double seq_start = NowNs();
  double prev = seq_start;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (traced) {
      const obs::QueryTraceScope scope(trace_system, id_base + i);
      ring.LookupInto(reqs[i].key, reqs[i].origin, res);
    } else {
      ring.LookupInto(reqs[i].key, reqs[i].origin, res);
    }
    seq_hops += res.hops;
    seq_owner_sum += res.owner;
    const double now = NowNs();
    hist.Record(static_cast<std::uint64_t>(std::max(0.0, now - prev)));
    prev = now;
  }
  p.seq_ns = (prev - seq_start) / static_cast<double>(reqs.size());
  p.tail = obs::SummarizeTail(hist);

  std::uint64_t batch_hops = 0;
  std::uint64_t batch_owner_sum = 0;
  // One prefetch after each step, of the lines the walk's next step reads,
  // lands a full lane round ahead of its use.
  harness::BatchLookupEngine<Ring> engine(batch);
  // Warm the lane results so the timed run replays allocation-free.
  engine.Run(ring, reqs.data(), std::min<std::size_t>(reqs.size(), batch),
             [&](std::size_t, const typename Ring::LookupResult&) {});
  const double batch_start = NowNs();
  engine.Run(ring, reqs.data(), reqs.size(),
             [&](std::size_t, const typename Ring::LookupResult& r) {
               batch_hops += r.hops;
               batch_owner_sum += r.owner;
             });
  p.batch_ns = (NowNs() - batch_start) / static_cast<double>(reqs.size());

  if (batch_hops != seq_hops || batch_owner_sum != seq_owner_sum) {
    std::cerr << "FATAL: batch engine diverged from sequential walk (hops "
              << batch_hops << " vs " << seq_hops << ", owner checksum "
              << batch_owner_sum << " vs " << seq_owner_sum << ")\n";
    std::exit(1);
  }
  p.avg_hops =
      static_cast<double>(seq_hops) / static_cast<double>(reqs.size());
  p.mem_mb = static_cast<double>(ring.ApproxMemoryBytes()) / (1024.0 * 1024.0);
  return p;
}

void PrintRow(harness::TablePrinter& table, const char* system, std::size_t n,
              unsigned param, const ScalePoint& p, double predicted) {
  const double bias =
      predicted > 0 ? 100.0 * (p.avg_hops - predicted) / predicted : 0.0;
  table.Row({system, std::to_string(n), std::to_string(param),
             harness::TablePrinter::Num(p.avg_hops, 2),
             harness::TablePrinter::Num(predicted, 2),
             harness::TablePrinter::Num(bias, 1),
             harness::TablePrinter::Num(p.seq_ns, 1),
             std::to_string(p.tail.p50), std::to_string(p.tail.p99),
             std::to_string(p.tail.p999),
             harness::TablePrinter::Num(p.batch_ns, 1),
             harness::TablePrinter::Num(p.seq_ns / p.batch_ns, 2),
             harness::TablePrinter::Num(p.mem_mb, 1)});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lorm;
  const auto opt = bench::ParseOptions(argc, argv);
  const std::size_t batch = opt.batch == 0 ? 16 : opt.batch;
  std::size_t only_n = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--n=", 4) == 0) {
      only_n = static_cast<std::size_t>(std::strtoull(argv[i] + 4, nullptr, 10));
    }
  }

  harness::PrintBanner(
      std::cout, "Scaling — hops/lookup and ns/lookup vs n",
      "analysis curves: Chord log2(n)/2, Cycloid d (Theorems 4.7/4.8 costs)");

  std::vector<std::size_t> sizes{1024, 4096, 16384, 65536, 262144, 1048576};
  if (opt.quick) sizes = {1024, 4096, 16384, 65536};
  if (only_n != 0) sizes = {only_n};
  const std::size_t queries = opt.quick ? 4000 : 20000;
  std::cout << "batch=" << batch << ", " << queries
            << " lookups/point, bulk-built networks\n\n";

  harness::TablePrinter table(
      std::cout, {"system", "n", "bits/d", "hops", "analysis", "bias%",
                  "seq ns", "p50", "p99", "p999", "batch ns", "speedup",
                  "mem MB"},
      10);
  table.PrintHeader();

  std::size_t total_lookups = 0;
  for (const std::size_t n : sizes) {
    analysis::SystemModel model;
    model.n = n;

    {
      chord::Config cfg;
      cfg.bits = BitsFor(n);
      const auto ring = chord::MakeRing(n, cfg, /*deterministic_ids=*/false);
      const auto members = ring.Members();
      Rng rng(0xF165CA1Eull + n);
      std::vector<harness::BatchLookupEngine<chord::ChordRing>::Request> reqs;
      reqs.reserve(queries);
      for (std::size_t i = 0; i < queries; ++i) {
        reqs.push_back({rng.NextBelow(ring.space()),
                        members[rng.NextBelow(members.size())]});
      }
      const auto p = MeasurePoint(ring, "Chord", reqs, batch);
      PrintRow(table, "Chord", n, cfg.bits, p, analysis::ChordLookupHops(model));
      total_lookups += 2 * queries;
    }

    {
      // Cycloid's d-hop routing assumes (near-)full occupancy — a sparse
      // network degenerates into leaf-set walks (the paper evaluates at
      // n = d * 2^d exactly). Build the full network of the dimension that
      // fits n, at its natural size.
      cycloid::Config cfg;
      cfg.dimension = cycloid::DimensionFor(n);
      model.d = cfg.dimension;
      const std::size_t n_cyc = std::size_t{cfg.dimension} << cfg.dimension;
      const auto net = cycloid::MakeCycloid(n_cyc, cfg);
      const auto members = net.Members();
      const unsigned d = net.dimension();
      Rng rng(0xF165C7C101Dull + n);
      std::vector<harness::BatchLookupEngine<cycloid::CycloidNetwork>::Request>
          reqs;
      reqs.reserve(queries);
      for (std::size_t i = 0; i < queries; ++i) {
        reqs.push_back({{static_cast<unsigned>(rng.NextBelow(d)),
                         rng.NextBelow(std::uint64_t{1} << d)},
                        members[rng.NextBelow(members.size())]});
      }
      const auto p = MeasurePoint(net, "LORM", reqs, batch);
      PrintRow(table, "LORM", n_cyc, d, p, analysis::CycloidLookupHops(model));
      total_lookups += 2 * queries;
    }
  }

  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  std::cout << "\npeak RSS: "
            << harness::TablePrinter::Num(
                   static_cast<double>(usage.ru_maxrss) / 1024.0, 1)
            << " MB\n";
  std::cout << "shape check: bias% shrinks as n grows (finite-size bias of "
               "the theorem hop estimates); speedup > 1 once the slab "
               "outgrows cache\n";
  bench::FinishBench(opt, total_lookups);
  return 0;
}
