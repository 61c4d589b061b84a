// Planner ablation: the selectivity-driven query planner (`--plan`) against
// the classic fixed-order execution, all four systems, k = 1..5 attributes.
//
// Twin builds of every system replay the *same* range-query stream with the
// planner off and on; the bench asserts the joined provider sets are
// identical query by query (the planner is a pure execution-order
// optimization) and reports the visited-node and routing-hop savings. The
// line `mean visited reduction (k=3): X.XX` is parsed by the CI gate.
#include <map>

#include "fig_common.hpp"

namespace {

using namespace lorm;

struct Leg {
  double visited = 0;
  double hops = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using harness::SystemKind;
  const auto opt = bench::ParseOptions(argc, argv);
  const auto base = bench::FigureSetup(opt);
  resource::Workload workload(base.MakeWorkloadConfig());
  const std::size_t queries = opt.quick ? 60 : 200;

  harness::PrintBanner(
      std::cout, "Planner ablation — selectivity-ordered sub-queries",
      "identical providers, fewer visited nodes: most-selective-first with "
      "early exit on an empty candidate intersection");
  bench::PrintSetup(base, queries);

  // Twin builds: same overlay, same advertisements, planner off vs on.
  harness::Setup setup_off = base;
  setup_off.plan = false;
  harness::Setup setup_on = base;
  setup_on.plan = true;
  const auto kinds = harness::AllSystems();
  std::map<SystemKind, std::unique_ptr<discovery::DiscoveryService>> off;
  std::map<SystemKind, std::unique_ptr<discovery::DiscoveryService>> on;
  for (const auto kind : kinds) {
    off[kind] = harness::BuildPopulated(kind, setup_off, workload);
    on[kind] = harness::BuildPopulated(kind, setup_on, workload);
  }

  std::vector<std::size_t> attr_counts{1, 2, 3, 4, 5};
  harness::TablePrinter table(
      std::cout,
      {"attrs", "system", "visited-off", "visited-on", "reduction",
       "hops-off", "hops-on"},
      13);
  table.PrintHeader();

  std::map<SystemKind, double> reduction_k3;
  std::size_t replayed = 0;
  for (const std::size_t attrs : attr_counts) {
    for (const auto kind : kinds) {
      // One deterministic query stream per (k, system) point, replayed
      // against both builds.
      Rng rng(0xAB7A710Full + attrs * 131 + static_cast<std::size_t>(kind));
      Leg a, b;
      discovery::QueryScratch scratch_off, scratch_on;
      for (std::size_t i = 0; i < queries; ++i) {
        const NodeAddr requester =
            static_cast<NodeAddr>(rng.NextBelow(base.nodes));
        const auto q = workload.MakeRangeQuery(
            attrs, requester, resource::RangeStyle::kBounded, rng);
        // Both replays trace under the system's name (with --trace): the
        // plan-on traces carry "plan"/"cand", the others don't, and
        // lorm-analyze's planner block counts only the former.
        const auto r_off = [&] {
          const obs::QueryTraceScope trace(off[kind]->name(), replayed);
          return off[kind]->Query(q, scratch_off);
        }();
        const auto r_on = [&] {
          const obs::QueryTraceScope trace(on[kind]->name(), replayed + 1);
          return on[kind]->Query(q, scratch_on);
        }();
        if (r_off.providers != r_on.providers) {
          std::cerr << "planner changed the answer (" << off[kind]->name()
                    << ", k=" << attrs << ", query " << i << "): "
                    << r_off.providers.size() << " vs "
                    << r_on.providers.size() << " providers\n";
          return 1;
        }
        a.visited += static_cast<double>(r_off.stats.visited_nodes);
        a.hops += static_cast<double>(r_off.stats.dht_hops);
        b.visited += static_cast<double>(r_on.stats.visited_nodes);
        b.hops += static_cast<double>(r_on.stats.dht_hops);
        replayed += 2;
      }
      const double q = static_cast<double>(queries);
      const double reduction = b.visited > 0 ? a.visited / b.visited : 1.0;
      if (attrs == 3) reduction_k3[kind] = reduction;
      table.Row({std::to_string(attrs), off[kind]->name(),
                 harness::TablePrinter::Num(a.visited / q, 1),
                 harness::TablePrinter::Num(b.visited / q, 1),
                 harness::TablePrinter::Num(reduction, 2) + "x",
                 harness::TablePrinter::Num(a.hops / q, 1),
                 harness::TablePrinter::Num(b.hops / q, 1)});
    }
  }

  double mean_reduction = 0;
  for (const auto& [kind, r] : reduction_k3) mean_reduction += r;
  mean_reduction /= static_cast<double>(reduction_k3.size());
  std::cout << "\nmean visited reduction (k=3): "
            << harness::TablePrinter::Num(mean_reduction, 2) << "\n";

  bench::FinishBench(opt, replayed);
  return 0;
}
