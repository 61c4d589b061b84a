// Figure 3(d): per-node directory size — Mercury vs LORM vs analysis.
//
// Analysis overlays (paper §V-A): the average equals Mercury's measured
// average; LORM's expected spread is Mercury's percentiles widened by
// n/(dm) = 1.28 (Theorem 4.5 — Mercury spreads information over all n nodes
// while LORM confines each attribute to a d-node cluster).
#include <algorithm>

#include "fig_common.hpp"

int main(int argc, char** argv) {
  using namespace lorm;
  const auto opt = bench::ParseOptions(argc, argv);

  harness::PrintBanner(
      std::cout, "Figure 3(d) — directory size per node: Mercury vs LORM",
      "Theorem 4.5: Mercury is more balanced than LORM by n/(dm) times");

  std::vector<std::size_t> sizes{512, 1024, 2048, 4096};
  if (opt.quick) sizes = {256};

  harness::TablePrinter table(
      std::cout, {"n", "series", "avg", "p1", "p99", "fairness", "n/(dm)"},
      12);
  table.PrintHeader();

  for (const std::size_t n : sizes) {
    const auto setup = bench::FigureSetup(opt).WithNodes(n);
    resource::Workload workload(setup.MakeWorkloadConfig());
    const auto model = bench::ModelOf(setup);
    const double widen = analysis::T45MercuryBalanceFactor(model);

    const auto mercury =
        harness::BuildPopulated(harness::SystemKind::kMercury, setup, workload);
    const auto lorm =
        harness::BuildPopulated(harness::SystemKind::kLorm, setup, workload);
    const auto dm = harness::MeasureDirectories(*mercury);
    const auto dl = harness::MeasureDirectories(*lorm);

    auto row = [&](const std::string& name, double avg, double p1, double p99,
                   const std::string& fair) {
      table.Row({std::to_string(n), name, harness::TablePrinter::Num(avg, 1),
                 harness::TablePrinter::Num(p1, 1),
                 harness::TablePrinter::Num(p99, 1), fair,
                 harness::TablePrinter::Num(widen, 2)});
    };
    row("Mercury", dm.per_node.mean, dm.per_node.p01, dm.per_node.p99,
        harness::TablePrinter::Num(dm.fairness, 3));
    row("LORM", dl.per_node.mean, dl.per_node.p01, dl.per_node.p99,
        harness::TablePrinter::Num(dl.fairness, 3));
    // The paper's overlay rule (divide p1, multiply p99 by n/(dm)) widens
    // the spread when the factor exceeds 1; when n < d*m the factor is < 1
    // (Theorem 4.5 then nominally favours LORM) and the raw rule would cross
    // the percentiles over the mean, so clamp to the mean.
    row("Analysis-LORM", dm.per_node.mean,
        std::min(dm.per_node.mean, dm.per_node.p01 / widen),
        std::max(dm.per_node.mean, dm.per_node.p99 * widen), "-");
  }

  std::cout << "\nshape check: equal averages; where n/(dm) > 1 LORM's "
               "spread is wider than Mercury's by about that factor "
               "(Theorem 4.5); p1 can undershoot when some cluster nodes "
               "receive no values (paper's note)\n";
  bench::FinishBench(opt);
  return 0;
}
