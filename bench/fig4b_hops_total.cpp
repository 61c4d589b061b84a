// Figure 4(b): total logical hops over all 1000 queries (100 requesters x
// 10 queries) per non-range multi-attribute query, vs. attribute count.
// Same series as Figure 4(a), totalled — the paper plots both panels.
#include "fig45_common.hpp"

int main(int argc, char** argv) {
  using namespace lorm;
  using harness::SystemKind;
  const auto opt = bench::ParseOptions(argc, argv);
  const auto setup = bench::FigureSetup(opt);
  resource::Workload workload(setup.MakeWorkloadConfig());
  const auto model = bench::ModelOf(setup);

  harness::PrintBanner(
      std::cout, "Figure 4(b) — total hops for 1000 non-range queries",
      "Theorems 4.7 + 4.8, totalled over the query batch");
  bench::PrintSetup(setup, opt.quick ? 100 : 1000);

  std::vector<std::size_t> attr_counts{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  if (opt.quick) attr_counts = {1, 3, 5};

  const auto points = bench::RunQuerySweep(
      setup, workload, harness::AllSystems(), /*range=*/false,
      bench::Metric::kTotalHops, attr_counts, opt.quick ? 20 : 100, 10,
      opt.jobs);

  harness::TablePrinter table(std::cout,
                              {"attrs", "MAAN", "Analysis-LORM", "LORM",
                               "Mercury", "SWORD", "Analysis-Mrc/SWD", "D1HT"},
                              14);
  table.PrintHeader();
  for (const auto& p : points) {
    const double maan = p.value.at(SystemKind::kMaan);
    table.Row({std::to_string(p.attrs), harness::TablePrinter::Int(maan),
               harness::TablePrinter::Int(
                   maan / analysis::T47LormVsMaanFactor(model)),
               harness::TablePrinter::Int(p.value.at(SystemKind::kLorm)),
               harness::TablePrinter::Int(p.value.at(SystemKind::kMercury)),
               harness::TablePrinter::Int(p.value.at(SystemKind::kSword)),
               harness::TablePrinter::Int(
                   maan / analysis::T48MercurySwordVsMaanFactor()),
               harness::TablePrinter::Int(p.value.at(SystemKind::kD1ht))});
  }

  std::cout << "\nshape check: same ordering as Figure 4(a), scaled by the "
               "1000-query batch\n";
  bench::FinishBench(opt, attr_counts.size() * harness::AllSystems().size() *
                          (opt.quick ? 20 : 100) * 10);
  return 0;
}
