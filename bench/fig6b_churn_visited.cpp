// Figure 6(b): average visited nodes per range query in a highly dynamic
// environment, vs. the Poisson join/departure rate R = 0.1..0.5.
//
// Paper §V-C: Mercury, MAAN and their analysis curves overlap (within ~30
// of each other) so the paper draws only Mercury; SWORD and LORM sit orders
// of magnitude lower. Churn barely moves any of the curves.
#include <map>

#include "fig_common.hpp"
#include "harness/churn.hpp"

int main(int argc, char** argv) {
  using namespace lorm;
  using harness::SystemKind;
  const auto opt = bench::ParseOptions(argc, argv);
  const auto setup = bench::FigureSetup(opt);
  const auto model = bench::ModelOf(setup);
  const std::size_t attrs = 3;
  const std::size_t queries_per_rate = opt.quick ? 100 : 2000;

  harness::PrintBanner(
      std::cout, "Figure 6(b) — avg visited nodes per range query under churn",
      "Poisson join+departure rate R; 3-attribute bounded ranges; analysis "
      "from Theorem 4.9");
  bench::PrintSetup(setup, queries_per_rate);

  harness::TablePrinter table(std::cout,
                              {"R", "Mercury", "MAAN", "Analysis-Mercury",
                               "LORM", "Analysis-LORM", "SWORD", "D1HT",
                               "failures"},
                              14);
  table.PrintHeader();

  const std::vector<double> rates{0.1, 0.2, 0.3, 0.4, 0.5};
  for (const double rate : rates) {
    std::map<SystemKind, harness::ChurnResult> results;
    std::size_t failures = 0;
    for (const auto kind : harness::AllSystems()) {
      resource::Workload workload(setup.MakeWorkloadConfig());
      auto service = harness::BuildPopulated(kind, setup, workload);
      harness::ChurnConfig cfg;
      cfg.rate = rate;
      cfg.total_queries = queries_per_rate;
      cfg.attrs_per_query = attrs;
      cfg.range = true;
      cfg.style = resource::RangeStyle::kBounded;
      cfg.seed = 0xF16B + static_cast<std::uint64_t>(rate * 10);
      const auto sampler = bench::MakeTimelineSampler(opt, 5.0);
      cfg.timeline = sampler.get();
      results[kind] = harness::RunChurn(
          *service, workload, static_cast<NodeAddr>(setup.nodes) + 1, cfg);
      failures += results[kind].failures;
      if (sampler != nullptr) bench::WriteTimeline(opt, *sampler);
    }
    table.Row(
        {harness::TablePrinter::Num(rate, 1),
         harness::TablePrinter::Int(results[SystemKind::kMercury].avg_visited),
         harness::TablePrinter::Int(results[SystemKind::kMaan].avg_visited),
         harness::TablePrinter::Int(
             analysis::RangeVisitedMercury(model, attrs)),
         harness::TablePrinter::Num(results[SystemKind::kLorm].avg_visited,
                                    1),
         harness::TablePrinter::Num(analysis::RangeVisitedLorm(model, attrs),
                                    1),
         harness::TablePrinter::Num(results[SystemKind::kSword].avg_visited,
                                    1),
         harness::TablePrinter::Int(results[SystemKind::kD1ht].avg_visited),
         std::to_string(failures)});
  }

  std::cout << "\nshape check: Mercury ~ MAAN ~ D1HT ~ their analysis "
               "(overlapping); LORM ~ m(1+d/4) and SWORD ~ m, flat in R, "
               "zero failures\n";
  bench::FinishBench(opt, rates.size() * harness::AllSystems().size() *
                          queries_per_rate);
  return 0;
}
