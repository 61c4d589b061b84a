// Cache hotspot bench: what the adaptive caching layer buys on a skewed
// workload.
//
// The paper's load-balance analysis (§IV, Thms 4.9-4.10) flags exactly this
// scenario: SWORD pools an entire attribute at one node and Mercury hubs
// concentrate popular ranges, so hot (attribute, range) requests hammer the
// same owners through full-length routes. This bench draws queries from a
// fixed pool of single-attribute bounded-range templates with Zipf(s)
// popularity over template ranks (s = 1.0, the classic hot-key skew),
// uniformly random requesters, and replays the same stream against every
// system twice — caching off, then on (--cache semantics of the fig
// benches). Reported per system: hops/query and visited-nodes/query in both
// modes and the off/on reduction factor; the CI gate requires the minimum
// reduction to stay >= 2x.
//
// Invalidation is exercised by the churn tests (test_cache.cpp), not here:
// this workload is static, so every template after the first draw is a
// result-cache hit and the residual cost is the route-cache-accelerated
// misses.
#include <algorithm>

#include "fig_common.hpp"

namespace {

struct ModeNumbers {
  double hops_per_query = 0;
  double visited_per_query = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace lorm;
  using harness::SystemKind;
  const auto opt = bench::ParseOptions(argc, argv);
  harness::Setup setup =
      opt.quick ? harness::Setup::Quick() : harness::Setup::Paper();
  resource::Workload workload(setup.MakeWorkloadConfig());

  const std::size_t templates = opt.quick ? 64 : 200;
  const std::size_t queries = opt.quick ? 2000 : 20000;
  const double zipf_s = 1.0;

  harness::PrintBanner(
      std::cout, "Cache hotspot — Zipf hot-key workload, caching off vs on",
      "route cache: repeat lookups converge toward O(1) hops; result cache: "
      "repeat ranges cost zero");
  bench::PrintSetup(setup);
  std::cout << "workload: " << templates
            << " single-attribute bounded-range templates, Zipf(s=" << zipf_s
            << ") popularity, " << queries << " queries, uniform requesters\n\n";

  // One fixed template pool, shared by every system and both modes.
  std::vector<resource::SubQuery> pool;
  {
    Rng rng(0xCAC4Eull);
    pool.reserve(templates);
    for (std::size_t i = 0; i < templates; ++i) {
      pool.push_back(workload
                         .MakeRangeQuery(1, /*requester=*/0,
                                         resource::RangeStyle::kBounded, rng)
                         .subs.front());
    }
  }
  const Zipf popularity(templates, zipf_s);

  const auto run_mode = [&](SystemKind kind, bool cache) {
    harness::Setup s = setup;
    s.cache = cache;
    auto service = harness::BuildPopulated(kind, s, workload);
    ModeNumbers out;
    Rng rng(0x407ull);  // same stream for every system and both modes
    for (std::size_t i = 0; i < queries; ++i) {
      resource::MultiQuery q;
      q.requester = static_cast<NodeAddr>(rng.NextBelow(setup.nodes));
      q.subs = {pool[popularity.Sample(rng) - 1]};
      const auto res = service->Query(q);
      out.hops_per_query += static_cast<double>(
          res.stats.dht_hops + static_cast<HopCount>(res.stats.walk_steps));
      out.visited_per_query += static_cast<double>(res.stats.visited_nodes);
    }
    out.hops_per_query /= static_cast<double>(queries);
    out.visited_per_query /= static_cast<double>(queries);
    return out;
  };

  harness::TablePrinter table(
      std::cout,
      {"system", "hops/q off", "hops/q on", "reduction", "visited/q off",
       "visited/q on"},
      14);
  table.PrintHeader();
  double min_reduction = 1e300;
  for (const auto kind : harness::AllSystems()) {
    const auto off = run_mode(kind, /*cache=*/false);
    const auto on = run_mode(kind, /*cache=*/true);
    const double reduction =
        on.hops_per_query > 0 ? off.hops_per_query / on.hops_per_query : 1e300;
    min_reduction = std::min(min_reduction, reduction);
    table.Row({harness::SystemName(kind),
               harness::TablePrinter::Num(off.hops_per_query, 2),
               harness::TablePrinter::Num(on.hops_per_query, 2),
               harness::TablePrinter::Num(reduction, 1) + "x",
               harness::TablePrinter::Num(off.visited_per_query, 2),
               harness::TablePrinter::Num(on.visited_per_query, 2)});
  }

  std::cout << "\nmin hops/query reduction: "
            << harness::TablePrinter::Num(min_reduction, 2) << "x\n";
  // Every system answers the hot templates from its caches after the first
  // few draws; both modes replay the identical stream, so the reduction is
  // pure caching effect (CI gates it at >= 2x).
  bench::FinishBench(opt, 2 * harness::AllSystems().size() * queries);
  return 0;
}
