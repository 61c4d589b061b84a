// Figure 5(a): visited nodes for range queries — the system-wide walkers
// (MAAN and Mercury) against their analysis curves, log-scale territory.
//
// Paper §V-B: the total visited nodes for 1000 queries is ~513m x 1000 for
// Mercury and ~514m x 1000 for MAAN (Theorem 4.9's averages with n = 2048);
// the four curves overlap at that scale, so the paper draws only MAAN. This
// bench prints all four so the overlap is visible numerically, plus D1HT:
// same dual-record walk as MAAN but on the single-hop ring, so its visited
// count tracks MAAN's — the walk cost is substrate-independent (Thm 4.9).
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
      std::cout,
      "Figure 5(a) — visited nodes, system-wide rangers (MAAN, Mercury)",
      "Theorem 4.9: total visited ~ m(2 + n/4) x queries (MAAN), "
      "m(1 + n/4) x queries (Mercury)");
  bench::PrintSetup(setup, queries);

  std::vector<std::size_t> attr_counts{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  if (opt.quick) attr_counts = {1, 3, 5};

  const auto points = bench::RunQuerySweep(
      setup, workload,
      {SystemKind::kMaan, SystemKind::kMercury, SystemKind::kD1ht},
      /*range=*/true, bench::Metric::kTotalVisited, attr_counts,
      queries / 10, 10, opt.jobs);

  harness::TablePrinter table(
      std::cout,
      {"attrs", "MAAN", "Analysis-MAAN", "Mercury", "Analysis-Mercury",
       "D1HT"},
      16);
  table.PrintHeader();
  const double q = static_cast<double>(queries);
  for (const auto& p : points) {
    table.Row(
        {std::to_string(p.attrs),
         harness::TablePrinter::Int(p.value.at(SystemKind::kMaan)),
         harness::TablePrinter::Int(
             analysis::RangeVisitedMaan(model, p.attrs) * q),
         harness::TablePrinter::Int(p.value.at(SystemKind::kMercury)),
         harness::TablePrinter::Int(
             analysis::RangeVisitedMercury(model, p.attrs) * q),
         harness::TablePrinter::Int(p.value.at(SystemKind::kD1ht))});
  }

  std::cout << "\nshape check: all columns overlap within a few percent "
               "(the paper draws a single curve for them; D1HT tracks MAAN "
               "— the walk is substrate-independent); compare with Figure "
               "5(b)'s SWORD/LORM, orders of magnitude lower\n";
  bench::FinishBench(opt, attr_counts.size() * 3 * queries);
  return 0;
}
