// Figure 4(a): average logical hops per non-range multi-attribute query vs.
// the number of attributes in the query.
//
// Series, as in the paper: MAAN (two Chord lookups per attribute),
// "Analysis-LORM" (MAAN's measurement divided by log(n)/d — Theorem 4.7),
// LORM (one Cycloid lookup per attribute), Mercury (which also represents
// SWORD and "Analysis-SWORD/Mercury" = MAAN/2, since those curves overlap —
// Theorem 4.8). SWORD is printed anyway to show the overlap. D1HT (MAAN's
// mapping on the single-hop substrate) bounds the plot from below at ~2
// one-hop lookups per attribute — the lookup-optimal bracket.
#include "fig45_common.hpp"

int main(int argc, char** argv) {
  using namespace lorm;
  using harness::SystemKind;
  const auto opt = bench::ParseOptions(argc, argv);
  const auto setup = bench::FigureSetup(opt);
  resource::Workload workload(setup.MakeWorkloadConfig());
  const auto model = bench::ModelOf(setup);

  harness::PrintBanner(
      std::cout, "Figure 4(a) — average hops per non-range query",
      "Theorems 4.7 + 4.8: MAAN = 2x Mercury/SWORD; LORM = MAAN / (log n / d)");
  bench::PrintSetup(setup, opt.quick ? 100 : 1000);

  std::vector<std::size_t> attr_counts{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  if (opt.quick) attr_counts = {1, 3, 5};

  const auto points = bench::RunQuerySweep(
      setup, workload, harness::AllSystems(), /*range=*/false,
      bench::Metric::kAvgHops, attr_counts, opt.quick ? 20 : 100, 10,
      opt.jobs);

  harness::TablePrinter table(std::cout,
                              {"attrs", "MAAN", "Analysis-LORM", "LORM",
                               "Mercury", "SWORD", "Analysis-Mrc/SWD", "D1HT"},
                              12);
  table.PrintHeader();
  for (const auto& p : points) {
    const double maan = p.value.at(SystemKind::kMaan);
    table.Row({std::to_string(p.attrs), harness::TablePrinter::Num(maan, 1),
               harness::TablePrinter::Num(
                   maan / analysis::T47LormVsMaanFactor(model), 1),
               harness::TablePrinter::Num(p.value.at(SystemKind::kLorm), 1),
               harness::TablePrinter::Num(p.value.at(SystemKind::kMercury), 1),
               harness::TablePrinter::Num(p.value.at(SystemKind::kSword), 1),
               harness::TablePrinter::Num(
                   maan / analysis::T48MercurySwordVsMaanFactor(), 1),
               harness::TablePrinter::Num(p.value.at(SystemKind::kD1ht), 1)});
  }

  std::cout << "\nshape check: MAAN highest, Mercury==SWORD lowest, LORM in "
               "between near Analysis-LORM; all grow linearly in the "
               "attribute count; D1HT floors the plot at ~2 hops/attribute "
               "(one-hop lookups)\n";
  bench::FinishBench(opt, attr_counts.size() * harness::AllSystems().size() *
                          (opt.quick ? 20 : 100) * 10);
  return 0;
}
