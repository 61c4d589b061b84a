// Figure 3(c): per-node directory size — SWORD vs LORM vs analysis.
//
// Analysis overlays (paper §V-A): the average equals SWORD's measured
// average (both store each tuple once — Theorem 4.2); the p1/p99 are
// SWORD's measured percentiles divided by d (Theorem 4.4: a LORM cluster
// spreads each attribute pile over its d nodes).
#include "fig_common.hpp"

int main(int argc, char** argv) {
  using namespace lorm;
  const auto opt = bench::ParseOptions(argc, argv);

  harness::PrintBanner(
      std::cout, "Figure 3(c) — directory size per node: SWORD vs LORM",
      "Theorem 4.4: LORM reduces SWORD's directory piles by d times");

  std::vector<std::size_t> sizes{512, 1024, 2048, 4096};
  if (opt.quick) sizes = {256};

  harness::TablePrinter table(
      std::cout, {"n", "series", "avg", "p1", "p99", "max"}, 12);
  table.PrintHeader();

  for (const std::size_t n : sizes) {
    const auto setup = bench::FigureSetup(opt).WithNodes(n);
    resource::Workload workload(setup.MakeWorkloadConfig());
    const double d = static_cast<double>(setup.dimension);

    const auto sword =
        harness::BuildPopulated(harness::SystemKind::kSword, setup, workload);
    const auto lorm =
        harness::BuildPopulated(harness::SystemKind::kLorm, setup, workload);
    const auto ds = harness::MeasureDirectories(*sword);
    const auto dl = harness::MeasureDirectories(*lorm);

    auto row = [&](const std::string& name, double avg, double p1, double p99,
                   double mx) {
      table.Row({std::to_string(n), name, harness::TablePrinter::Num(avg, 1),
                 harness::TablePrinter::Num(p1, 1),
                 harness::TablePrinter::Num(p99, 1),
                 harness::TablePrinter::Num(mx, 1)});
    };
    row("SWORD", ds.per_node.mean, ds.per_node.p01, ds.per_node.p99,
        ds.per_node.max);
    row("LORM", dl.per_node.mean, dl.per_node.p01, dl.per_node.p99,
        dl.per_node.max);
    row("Analysis-LORM", ds.per_node.mean, ds.per_node.p01 / d,
        ds.per_node.p99 / d, ds.per_node.max / d);
  }

  std::cout << "\nshape check: equal averages (Theorem 4.2); LORM p99 ~ "
               "SWORD p99 / d, slightly above from value randomness "
               "(Theorem 4.4)\n";
  bench::FinishBench(opt);
  return 0;
}
