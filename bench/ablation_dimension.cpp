// Ablation (DESIGN.md §5): the Cycloid dimension trade-off behind LORM.
//
// The dimension d fixes everything at once: network capacity (d * 2^d),
// lookup path length (O(d)), cluster size (= d, so the range-walk cost is
// ~1 + d/4 per attribute) and the attribute->cluster collision rate
// (m attributes hash into 2^d clusters). Sweeping d at full population
// shows why the paper's d = 8 / n = 2048 configuration sits where it does.
#include "fig_common.hpp"
#include "discovery/lorm_service.hpp"

int main(int argc, char** argv) {
  using namespace lorm;
  const auto opt = bench::ParseOptions(argc, argv);

  harness::PrintBanner(
      std::cout, "Ablation — Cycloid dimension sweep (fully populated LORM)",
      "capacity d*2^d, O(d) lookups, d-node clusters, 2^d attribute slots");

  harness::TablePrinter table(std::cout,
                              {"d", "n", "avg-hops", "range-visit",
                               "outlinks", "dir-p99", "fairness"},
                              12);
  table.PrintHeader();

  std::vector<unsigned> dims{5, 6, 7, 8, 9};
  if (opt.quick) dims = {5, 6};

  for (const unsigned d : dims) {
    harness::Setup setup = bench::FigureSetup(opt);
    setup.dimension = d;
    setup.nodes = static_cast<std::size_t>(d) << d;  // fully populated
    unsigned bits = 1;
    while ((std::uint64_t{1} << bits) < setup.nodes) ++bits;
    setup.chord_bits = bits;

    resource::Workload workload(setup.MakeWorkloadConfig());
    auto service =
        harness::BuildPopulated(harness::SystemKind::kLorm, setup, workload);

    harness::QueryExperimentConfig pq;
    pq.requesters = opt.quick ? 20 : 100;
    pq.queries_per_requester = 10;
    pq.attrs_per_query = 1;
    pq.jobs = opt.jobs;
    const auto point = harness::RunQueries(*service, workload, pq);

    pq.range = true;
    pq.style = resource::RangeStyle::kBounded;
    const auto range = harness::RunQueries(*service, workload, pq);

    const auto dirs = harness::MeasureDirectories(*service);
    const auto links = harness::MeasureOutlinks(*service);

    table.Row({std::to_string(d), std::to_string(setup.nodes),
               harness::TablePrinter::Num(point.avg_hops, 2),
               harness::TablePrinter::Num(range.avg_visited, 2),
               harness::TablePrinter::Num(links.mean, 2),
               harness::TablePrinter::Num(dirs.per_node.p99, 1),
               harness::TablePrinter::Num(dirs.fairness, 3)});
  }

  std::cout << "\nshape check: hops grow ~linearly in d while outlinks stay "
               "constant; larger d spreads each attribute pile over more "
               "cluster nodes (lower p99) but lengthens range walks "
               "(~1 + d/4 visited)\n";
  bench::FinishBench(opt, dims.size() * 2 * (opt.quick ? 20 : 100) * 10);
  return 0;
}
