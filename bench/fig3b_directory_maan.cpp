// Figure 3(b): per-node directory size — MAAN vs LORM vs analysis.
//
// Analysis overlays, as the paper computes them for n=2048/m=200/d=8:
//   * average:    MAAN's measured average divided by 2 (Theorem 4.2 — MAAN
//                 stores every tuple twice);
//   * p1/p99:     MAAN's measured percentiles divided by d(1 + m/n) = 8.78
//                 (Theorem 4.3).
// Shape to reproduce: LORM's average matches the analysis; its p99 is only
// slightly above it (value randomness); MAAN's spread is far wider.
#include "fig_common.hpp"

int main(int argc, char** argv) {
  using namespace lorm;
  const auto opt = bench::ParseOptions(argc, argv);

  harness::PrintBanner(
      std::cout, "Figure 3(b) — directory size per node: MAAN vs LORM",
      "Theorems 4.2 + 4.3: LORM reduces MAAN directories by d(1+m/n)");

  std::vector<std::size_t> sizes{512, 1024, 2048, 4096};
  if (opt.quick) sizes = {256};

  harness::TablePrinter table(
      std::cout, {"n", "series", "avg", "p1", "p99", "max"}, 12);
  table.PrintHeader();

  for (const std::size_t n : sizes) {
    const auto setup = bench::FigureSetup(opt).WithNodes(n);
    resource::Workload workload(setup.MakeWorkloadConfig());
    const auto model = bench::ModelOf(setup);

    const auto maan =
        harness::BuildPopulated(harness::SystemKind::kMaan, setup, workload);
    const auto lorm =
        harness::BuildPopulated(harness::SystemKind::kLorm, setup, workload);
    const auto dm = harness::MeasureDirectories(*maan);
    const auto dl = harness::MeasureDirectories(*lorm);
    const double factor = analysis::T43MaanDirectoryReduction(model);

    auto row = [&](const std::string& name, double avg, double p1, double p99,
                   double mx) {
      table.Row({std::to_string(n), name, harness::TablePrinter::Num(avg, 1),
                 harness::TablePrinter::Num(p1, 1),
                 harness::TablePrinter::Num(p99, 1),
                 harness::TablePrinter::Num(mx, 1)});
    };
    row("MAAN", dm.per_node.mean, dm.per_node.p01, dm.per_node.p99,
        dm.per_node.max);
    row("LORM", dl.per_node.mean, dl.per_node.p01, dl.per_node.p99,
        dl.per_node.max);
    row("Analysis-LORM", dm.per_node.mean / analysis::T42MaanStorageFactor(),
        dm.per_node.p01 / factor, dm.per_node.p99 / factor,
        dm.per_node.max / factor);
  }

  std::cout << "\nshape check: LORM avg == Analysis avg; LORM p99 slightly "
               "above Analysis p99 (non-uniform values); MAAN total = 2x "
               "(Theorem 4.2)\n";
  bench::FinishBench(opt);
  return 0;
}
