// Theorem 4.10 (text-only result in the paper — no figure): worst-case
// contacted nodes for a full-span range query.
//
// A query for the entire value domain of an attribute forces the
// system-wide walkers to probe every node: Mercury contacts ~(log n + n)
// nodes per attribute, MAAN ~(2 log n + n), while LORM stays within one
// cluster (~d contacted nodes) — a saving of at least m*n contacted nodes.
// "Contacted" counts both routing hops and directory probes.
#include <map>

#include "fig_common.hpp"

int main(int argc, char** argv) {
  using namespace lorm;
  using harness::SystemKind;
  const auto opt = bench::ParseOptions(argc, argv);
  const auto setup = bench::FigureSetup(opt);
  resource::Workload workload(setup.MakeWorkloadConfig());
  const auto model = bench::ModelOf(setup);
  const std::size_t queries = opt.quick ? 20 : 100;

  harness::PrintBanner(
      std::cout, "Theorem 4.10 — worst-case contacted nodes (full-span ranges)",
      "LORM saves at least m*n contacted nodes vs system-wide range methods");
  bench::PrintSetup(setup, queries);

  std::map<SystemKind, std::unique_ptr<discovery::DiscoveryService>> services;
  for (const auto kind : harness::AllSystems()) {
    services[kind] = harness::BuildPopulated(kind, setup, workload);
  }

  harness::TablePrinter table(
      std::cout, {"attrs", "system", "contacted/query", "analysis-bound"}, 16);
  table.PrintHeader();

  for (const std::size_t attrs : {std::size_t{1}, std::size_t{2},
                                  std::size_t{3}}) {
    for (const auto kind : harness::AllSystems()) {
      harness::QueryExperimentConfig cfg;
      cfg.requesters = queries / 10 > 0 ? queries / 10 : 1;
      cfg.queries_per_requester = 10;
      cfg.attrs_per_query = attrs;
      cfg.range = true;
      cfg.style = resource::RangeStyle::kFullSpan;
      cfg.seed = 0x410 + attrs;
      cfg.jobs = opt.jobs;
      const auto r = harness::RunQueries(*services[kind], workload, cfg);
      const double contacted = r.avg_hops + r.avg_visited;
      double worst = 0;
      switch (kind) {
        case SystemKind::kMercury:
          worst = analysis::T410WorstCaseMercury(model, attrs);
          break;
        case SystemKind::kMaan:
          worst = analysis::T410WorstCaseMaan(model, attrs);
          break;
        case SystemKind::kLorm:
          // Theorem 4.10 charges LORM m*d contacted nodes for routing; a
          // full-span range additionally probes the whole d-node cluster.
          worst = analysis::T410WorstCaseLorm(model, attrs) +
                  static_cast<double>(attrs) *
                      (static_cast<double>(model.d) + 1.0);
          break;
        case SystemKind::kSword:
          // One worst-case Chord lookup (log n hops) + one probed node.
          worst = static_cast<double>(attrs) *
                  (analysis::Log2(static_cast<double>(model.n)) + 1.0);
          break;
        case SystemKind::kD1ht:
          // MAAN's walk with one-hop lookups: 2 hops + ~n probed nodes.
          worst = static_cast<double>(attrs) *
                  (2.0 + static_cast<double>(model.n));
          break;
      }
      table.Row({std::to_string(attrs), harness::SystemName(kind),
                 harness::TablePrinter::Num(contacted, 1),
                 harness::TablePrinter::Num(worst, 1)});
    }
    const double savings = analysis::T410LormSavings(model, attrs);
    std::cout << "  -> Theorem 4.10 guaranteed LORM saving vs system-wide: "
              << harness::TablePrinter::Int(savings) << " contacted nodes\n";
  }

  std::cout << "\nshape check: Mercury/MAAN contact ~n nodes per attribute; "
               "LORM stays within ~2d+1 per attribute; the measured "
               "LORM-vs-system-wide gap matches the guaranteed m*n saving\n";
  bench::FinishBench(opt, 3 * harness::AllSystems().size() * queries);
  return 0;
}
