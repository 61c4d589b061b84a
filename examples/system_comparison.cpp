// Side-by-side comparison of the five discovery architectures on one
// workload — the paper's §IV comparative study as a runnable program.
//
// Builds LORM, Mercury, SWORD, MAAN and D1HT over the same nodes and
// resource advertisements, issues identical point and range query batches,
// and prints the §IV cost axes: structure overhead (out-links), information
// overhead (directory sizes, total pieces), and discovery efficiency (hops,
// visited nodes). The answers are verified to be identical across systems.
#include <iomanip>
#include <iostream>

#include "harness/experiments.hpp"
#include "harness/setup.hpp"
#include "harness/table.hpp"

int main() {
  using namespace lorm;
  using harness::SystemKind;

  harness::Setup setup = harness::Setup::Small();
  setup.pareto_shape = 1.0;  // the paper's mild skew
  setup.value_min = 500.0;
  setup.value_max = 1000.0;

  resource::Workload workload(setup.MakeWorkloadConfig());
  const auto infos = harness::GridInfos(setup, workload);

  std::cout << "one grid, five architectures: n=" << setup.nodes << ", m="
            << setup.attributes << " attributes, k="
            << setup.infos_per_attribute << " tuples/attribute\n\n";

  std::vector<std::unique_ptr<discovery::DiscoveryService>> services;
  for (const SystemKind kind : harness::AllSystems()) {
    services.push_back(harness::MakeService(kind, setup, workload.registry()));
    harness::AdvertiseAll(*services.back(), infos);
  }

  // Identical query batches for every system.
  harness::QueryExperimentConfig point_cfg;
  point_cfg.requesters = 50;
  point_cfg.queries_per_requester = 10;
  point_cfg.attrs_per_query = 3;
  harness::QueryExperimentConfig range_cfg = point_cfg;
  range_cfg.range = true;

  harness::TablePrinter table(
      std::cout,
      {"system", "outlinks", "dir p99", "pieces", "pt hops", "rg visited"},
      12);
  table.PrintHeader();
  for (const auto& svc : services) {
    const auto links = harness::MeasureOutlinks(*svc);
    const auto dirs = harness::MeasureDirectories(*svc);
    const auto pt = harness::RunQueries(*svc, workload, point_cfg);
    const auto rg = harness::RunQueries(*svc, workload, range_cfg);
    table.Row({svc->name(), harness::TablePrinter::Num(links.mean, 1),
               harness::TablePrinter::Num(dirs.per_node.p99, 0),
               std::to_string(dirs.total_pieces),
               harness::TablePrinter::Num(pt.avg_hops, 1),
               harness::TablePrinter::Num(rg.avg_visited, 1)});
  }

  // Answer agreement: the whole point of comparing *architectures* is that
  // the service semantics are identical.
  Rng qrng(99);
  bool all_agree = true;
  for (int i = 0; i < 25; ++i) {
    const auto q = workload.MakeRangeQuery(
        2, static_cast<NodeAddr>(qrng.NextBelow(setup.nodes)),
        resource::RangeStyle::kBounded, qrng);
    const auto expected = services.front()->Query(q).providers;
    for (std::size_t s = 1; s < services.size(); ++s) {
      all_agree &= services[s]->Query(q).providers == expected;
    }
  }
  std::cout << "\nanswer agreement across all five systems: "
            << (all_agree ? "yes" : "NO — BUG") << "\n";
  std::cout << "\nreading guide: Mercury buys its balance with m*log(n) "
               "out-links; SWORD/MAAN pool per-attribute piles (high p99); "
               "MAAN stores twice the pieces and pays double lookups; LORM "
               "keeps constant degree, cluster-bounded walks and near-"
               "Mercury balance; D1HT buys one-hop lookups with n-1 "
               "out-links per node — the paper's Table-less summary of §IV.\n";
  return all_agree ? 0 : 1;
}
