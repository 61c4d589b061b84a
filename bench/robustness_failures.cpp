// Robustness extension: abrupt node failures and soft-state recovery.
//
// Not a paper figure — the paper's churn (§V-C) is graceful and loses
// nothing. This bench crashes a fraction of the nodes of each system at
// once and reports (a) service quality right after the crashes (routing
// failures, recall of range queries against surviving ground truth) and
// (b) the same after one self-organization round plus one soft-state
// re-advertisement epoch. The architectural contrast: SWORD loses an
// attribute's *entire* directory when its root crashes, MAAN loses both of
// a tuple's records independently, LORM loses at most a cluster arc, and
// Mercury loses a thin value slice per hub.
#include "fig_common.hpp"
#include "harness/failures.hpp"

int main(int argc, char** argv) {
  using namespace lorm;
  using harness::SystemKind;
  const auto opt = bench::ParseOptions(argc, argv);
  auto setup = bench::FigureSetup(opt);
  if (!opt.quick) {
    // Failure sweeps rebuild each system several times; trim the workload a
    // little from the full figure scale (documented in EXPERIMENTS.md).
    setup.attributes = 100;
    setup.infos_per_attribute = 200;
  }
  const std::size_t queries = opt.quick ? 50 : 200;

  harness::PrintBanner(
      std::cout, "Robustness — abrupt failures and soft-state recovery",
      "crash f*n nodes; measure; stabilize + re-advertise epoch; measure");
  bench::PrintSetup(setup, queries);

  harness::TablePrinter table(
      std::cout,
      {"fail%", "system", "lost", "fail-q", "degraded", "repaired", "final"},
      10);
  table.PrintHeader();

  for (const double fraction : {0.05, 0.10, 0.20, 0.30}) {
    for (const auto kind : harness::AllSystems()) {
      resource::Workload workload(setup.MakeWorkloadConfig());
      auto service = harness::MakeService(kind, setup, workload.registry());
      const auto infos = harness::GridInfos(setup, workload);
      harness::AdvertiseAll(*service, infos);

      harness::FailureConfig cfg;
      cfg.fail_fraction = fraction;
      cfg.queries = queries;
      cfg.attrs_per_query = 2;
      cfg.seed = 0xFA11 + static_cast<std::uint64_t>(fraction * 100);
      // One window per failure phase (the harness stamps phases 0..3).
      const auto sampler = bench::MakeTimelineSampler(opt, 1.0);
      cfg.timeline = sampler.get();
      const auto r = harness::RunFailureExperiment(*service, workload, infos,
                                                   cfg);
      if (sampler != nullptr) bench::WriteTimeline(opt, *sampler);

      table.Row({harness::TablePrinter::Num(fraction * 100, 0),
                 harness::SystemName(kind), std::to_string(r.lost_entries),
                 std::to_string(r.degraded.routing_failures),
                 harness::TablePrinter::Num(r.degraded.recall, 3),
                 harness::TablePrinter::Num(r.repaired.recall, 3),
                 harness::TablePrinter::Num(r.recovered.recall, 3)});
    }
  }

  std::cout << "\nshape check: degraded recall drops roughly with the failed "
               "fraction (SWORD in all-or-nothing attribute piles, MAAN "
               "twice as exposed); after repair + re-advertisement every "
               "system returns to zero failures and recall 1.000\n";
  bench::FinishBench(opt);
  return 0;
}
