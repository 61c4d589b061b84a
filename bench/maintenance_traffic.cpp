// Maintenance-traffic extension of Theorem 4.1.
//
// The theorem compares *structure maintenance overhead*; Fig. 3(a) shows it
// as out-link counts. This bench measures it directly as protocol messages:
// each system runs the paper's churn workload (§V-C) with periodic
// stabilization, and reports overlay maintenance messages (and modeled
// bytes) per node per simulated second. Mercury pays roughly m rings'
// worth; LORM's constant degree keeps its refresh traffic flat; D1HT pays
// Θ(n) dissemination per membership event — the price of its one-hop
// lookups. The closing table is the headline tradeoff: hops per query vs.
// maintenance bytes/node/s, where D1HT and Chord-based MAAN bracket the
// design space (identical directories, opposite routing-state extremes).
#include <map>

#include "fig_common.hpp"
#include "harness/churn.hpp"

int main(int argc, char** argv) {
  using namespace lorm;
  using harness::SystemKind;
  const auto opt = bench::ParseOptions(argc, argv);
  auto setup = bench::FigureSetup(opt);
  if (!opt.quick) {
    setup.attributes = 100;        // keep the Mercury sweep affordable
    setup.infos_per_attribute = 100;
  }
  const std::size_t queries = opt.quick ? 60 : 400;

  harness::PrintBanner(
      std::cout, "Maintenance traffic per node under churn (Theorem 4.1)",
      "overlay protocol messages / node / simulated second; maintenance "
      "round every 20 s");
  bench::PrintSetup(setup, queries);

  harness::TablePrinter table(std::cout,
                              {"R", "LORM", "Mercury", "SWORD", "MAAN",
                               "Mercury/SWORD", "Mercury/LORM", "D1HT",
                               "D1HT/MAAN"},
                              13);
  table.PrintHeader();

  const std::vector<double> rates{0.1, 0.3, 0.5};
  // Per-rate hop and bytes/node/s measurements feeding the closing tables.
  std::map<SystemKind, double> bytes_node_sec;
  std::map<SystemKind, double> hops_per_query;
  for (const double rate : rates) {
    std::map<SystemKind, double> per_node_per_sec;
    for (const auto kind : harness::AllSystems()) {
      resource::Workload workload(setup.MakeWorkloadConfig());
      auto service = harness::BuildPopulated(kind, setup, workload);
      const std::uint64_t before = service->MaintenanceMessages();
      const std::uint64_t before_bytes = service->MaintenanceBytes();

      harness::ChurnConfig cfg;
      cfg.rate = rate;
      cfg.total_queries = queries;
      cfg.query_rate = 4.0;
      cfg.attrs_per_query = 2;
      cfg.maintain_interval = 20.0;
      cfg.seed = 0x7AFF1C + static_cast<std::uint64_t>(rate * 10);
      const auto churn = harness::RunChurn(
          *service, workload, static_cast<NodeAddr>(setup.nodes) + 1, cfg);

      const double messages =
          static_cast<double>(service->MaintenanceMessages() - before);
      const double node_seconds =
          static_cast<double>(service->NetworkSize()) * churn.sim_duration;
      per_node_per_sec[kind] = messages / node_seconds;
      // The closing tables report the harshest rate (the last in `rates`).
      bytes_node_sec[kind] =
          static_cast<double>(service->MaintenanceBytes() - before_bytes) /
          node_seconds;
      hops_per_query[kind] = churn.avg_hops;
    }
    table.Row(
        {harness::TablePrinter::Num(rate, 1),
         harness::TablePrinter::Num(per_node_per_sec[SystemKind::kLorm], 2),
         harness::TablePrinter::Num(per_node_per_sec[SystemKind::kMercury], 2),
         harness::TablePrinter::Num(per_node_per_sec[SystemKind::kSword], 2),
         harness::TablePrinter::Num(per_node_per_sec[SystemKind::kMaan], 2),
         harness::TablePrinter::Num(per_node_per_sec[SystemKind::kMercury] /
                                        per_node_per_sec[SystemKind::kSword],
                                    1),
         harness::TablePrinter::Num(per_node_per_sec[SystemKind::kMercury] /
                                        per_node_per_sec[SystemKind::kLorm],
                                    1),
         harness::TablePrinter::Num(per_node_per_sec[SystemKind::kD1ht], 2),
         harness::TablePrinter::Num(per_node_per_sec[SystemKind::kD1ht] /
                                        per_node_per_sec[SystemKind::kMaan],
                                    1)});
  }

  // Headline: the maintenance-vs-lookup tradeoff at the harshest rate.
  // Every system answers the same 2-attribute workload; what differs is
  // where it spends — routing hops on the query path (Chord/Cycloid) or
  // dissemination bytes on the maintenance path (single-hop).
  std::cout << "\nmaintenance-vs-lookup tradeoff at R = "
            << rates.back() << ":\n";
  harness::TablePrinter tradeoff(
      std::cout, {"system", "hops/query", "maint B/node/s"}, 15);
  tradeoff.PrintHeader();
  for (const auto kind : harness::AllSystems()) {
    tradeoff.Row({harness::SystemName(kind),
                  harness::TablePrinter::Num(hops_per_query[kind], 1),
                  harness::TablePrinter::Num(bytes_node_sec[kind], 1)});
  }

  std::cout << "\nshape check: Mercury/SWORD ~ m (one ring's traffic per "
               "hub); Mercury/LORM > m (Theorem 4.1: the Cycloid refresh is "
               "cheaper than one Chord ring's); D1HT/MAAN ~ n/log n (full-"
               "view dissemination) while its hops/query is the floor of "
               "the tradeoff table\n";
  bench::FinishBench(opt);
  return 0;
}
