// Ablation (DESIGN.md §5.2): linear vs CDF-equalizing locality-preserving
// hashing under increasingly skewed value distributions.
//
// The paper's theorems assume uniformly distributed values; its experiments
// note that random (Bounded Pareto) values push LORM's 99th percentile
// "slightly higher" than the analysis. This ablation quantifies that effect
// and shows that composing the LPH with the value CDF restores the uniform
// analysis even under harsh skew — at the price of requiring the
// distribution to be known.
#include <map>

#include "fig_common.hpp"
#include "discovery/lorm_service.hpp"

int main(int argc, char** argv) {
  using namespace lorm;
  const auto opt = bench::ParseOptions(argc, argv);
  auto setup = bench::FigureSetup(opt);
  setup.value_min = 1.0;  // three decades: room for real skew
  setup.value_max = 1000.0;

  harness::PrintBanner(
      std::cout, "Ablation — locality-preserving hash vs value skew (LORM)",
      "linear LPH (MAAN's construction, the paper's) vs CDF-equalizing LPH");
  bench::PrintSetup(setup);

  harness::TablePrinter table(
      std::cout,
      {"pareto-shape", "lph", "avg", "p99", "max", "fairness", "gini"}, 13);
  table.PrintHeader();

  for (const double shape : {0.05, 0.15, 0.4, 1.0, 2.0}) {
    setup.pareto_shape = shape;
    resource::Workload workload(setup.MakeWorkloadConfig());
    for (const bool equalize : {false, true}) {
      discovery::LormService::Config cfg;
      cfg.overlay.dimension = setup.dimension;
      cfg.overlay.seed = setup.seed;
      if (equalize) {
        const auto pareto = workload.value_distribution();
        cfg.value_cdf = [pareto](double v) { return pareto.Cdf(v); };
      }
      discovery::LormService service(setup.nodes, workload.registry(),
                                     std::move(cfg));
      for (const auto& info : harness::GridInfos(setup, workload)) {
        service.Advertise(info);
      }
      const auto m = harness::MeasureDirectories(service);
      table.Row({harness::TablePrinter::Num(shape, 2),
                 equalize ? "cdf-equalized" : "linear",
                 harness::TablePrinter::Num(m.per_node.mean, 1),
                 harness::TablePrinter::Num(m.per_node.p99, 1),
                 harness::TablePrinter::Num(m.per_node.max, 1),
                 harness::TablePrinter::Num(m.fairness, 3),
                 harness::TablePrinter::Num(m.gini, 3)});
    }
  }

  std::cout << "\nshape check: the linear LPH degrades steadily as the skew "
               "steepens (rising p99/max, collapsing fairness) and saturates "
               "once nearly all mass maps to one cyclic position; the "
               "CDF-equalized variant holds the uniform analysis at every "
               "skew\n";
  bench::FinishBench(opt);
  return 0;
}
