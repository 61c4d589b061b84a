// Latency extension: end-to-end query time under a WAN latency model.
//
// Hop counts (Fig. 4) are the paper's efficiency metric; this bench
// translates them into wall-clock terms. Sub-queries resolve in parallel,
// so a query's latency is its slowest sub-path (lookup hops + range-walk
// forwards + reply) under a shifted-exponential per-hop model (40 ms
// propagation + 20 ms mean queueing tail). The notable inversion vs the
// hop totals: parallelism hides MAAN's second lookup only partially, while
// Mercury/MAAN range walks serialize hundreds of hops and dominate.
#include "fig_common.hpp"
#include "sim/latency.hpp"

int main(int argc, char** argv) {
  using namespace lorm;
  using harness::SystemKind;
  const auto opt = bench::ParseOptions(argc, argv);
  const auto setup = bench::FigureSetup(opt);
  resource::Workload workload(setup.MakeWorkloadConfig());
  const sim::ShiftedExponentialLatency model(0.040, 0.020);

  harness::PrintBanner(
      std::cout, "Estimated query latency (WAN model, parallel sub-queries)",
      "per-hop ~ 40 ms + Exp(20 ms); 3-attribute queries; seconds");
  bench::PrintSetup(setup, opt.quick ? 100 : 1000);

  // p50/p90/p99/p999 come from the HDR-style LatencyHistogram (exact bucket
  // bounds, <= ~3% quantization), bit-identical for any --jobs.
  harness::TablePrinter table(
      std::cout, {"system", "kind", "mean", "p50", "p90", "p99", "p999"}, 12);
  table.PrintHeader();

  for (const auto kind : harness::AllSystems()) {
    auto service = harness::BuildPopulated(kind, setup, workload);
    for (const bool range : {false, true}) {
      harness::QueryExperimentConfig cfg;
      cfg.requesters = opt.quick ? 10 : 100;
      cfg.queries_per_requester = 10;
      cfg.attrs_per_query = 3;
      cfg.range = range;
      cfg.seed = 0x1A7E;
      cfg.jobs = opt.jobs;
      const auto lat =
          harness::MeasureQueryLatency(*service, workload, cfg, model);
      table.Row({harness::SystemName(kind), range ? "range" : "point",
                 harness::TablePrinter::Num(lat.mean, 3),
                 harness::TablePrinter::Num(lat.tail_p50, 3),
                 harness::TablePrinter::Num(lat.tail_p90, 3),
                 harness::TablePrinter::Num(lat.tail_p99, 3),
                 harness::TablePrinter::Num(lat.tail_p999, 3)});
    }
  }

  std::cout << "\nshape check: point queries cluster near (avg hops + 1) x "
               "60 ms with MAAN only mildly slower than its 2x hop total "
               "(parallel lookups); range queries blow Mercury/MAAN up to "
               "~n/4 serialized forwards while SWORD/LORM stay near their "
               "point latency\n";
  bench::FinishBench(opt, harness::AllSystems().size() * 2 *
                          (opt.quick ? 10 : 100) * 10);
  return 0;
}
