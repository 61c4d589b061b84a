// Shared plumbing for the figure-reproduction benches.
//
// Every fig* binary regenerates one panel of the paper's evaluation: it
// builds the systems at the paper's §V configuration, runs the figure's
// workload, and prints the measured series next to the paper's analytical
// overlay curves, exactly as the figure plots them. Pass --quick to run a
// reduced-scale smoke version.
#pragma once

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/theorems.hpp"
#include "common/thread_pool.hpp"
#include "harness/experiments.hpp"
#include "harness/setup.hpp"
#include "harness/table.hpp"
#include "obs/analyze.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"

namespace lorm::bench {

struct BenchOptions {
  bool quick = false;   ///< reduced-scale smoke run
  bool cache = false;   ///< enable the adaptive caching layer (--cache)
  bool plan = false;    ///< enable the selectivity-driven planner (--plan)
  bool csv = false;     ///< machine-readable table rows
  std::size_t jobs = 1; ///< worker threads (--jobs; default hw concurrency)
  /// fig_scale's BatchLookupEngine lane width (--batch); 0 = its default.
  std::size_t batch = 0;
  bool metrics = false;          ///< record + emit the metrics registry
  std::string metrics_file;      ///< --metrics=<file>: write JSON there
  std::string trace_file;        ///< --trace=<file>: per-query JSON lines
  bool analyze = false;          ///< --analyze: post-hoc trace report at exit
  /// --timeline[=<file>]: sim-time-bucketed telemetry (dynamic benches
  /// only). Empty file = print the JSONL to stdout.
  bool timeline = false;
  std::string timeline_file;
  double timeline_window = 0;    ///< --timeline-window=<s>; 0 = bench default
  /// --flight[=<file>]: enable the protocol flight recorder. With a file
  /// the ring is dumped there at exit; without one it is only dumped on a
  /// detected anomaly (--analyze path).
  bool flight = false;
  std::string flight_file;
  std::chrono::steady_clock::time_point start;  ///< bench wall-clock origin
};

namespace detail {
/// The trace sinks (and the file stream) installed by ParseOptions;
/// function-local statics so every bench binary gets them without a bench
/// .cpp to link. --trace=<file> installs the JSONL sink, --analyze an
/// in-memory collector FinishBench aggregates, both a tee.
inline std::ofstream& TraceStream() {
  static std::ofstream stream;
  return stream;
}
inline std::unique_ptr<obs::JsonLinesTraceSink>& TraceSinkSlot() {
  static std::unique_ptr<obs::JsonLinesTraceSink> sink;
  return sink;
}
inline std::unique_ptr<obs::MemoryTraceSink>& AnalyzeSinkSlot() {
  static std::unique_ptr<obs::MemoryTraceSink> sink;
  return sink;
}
inline std::unique_ptr<obs::TeeTraceSink>& TeeSinkSlot() {
  static std::unique_ptr<obs::TeeTraceSink> sink;
  return sink;
}
}  // namespace detail

inline BenchOptions ParseOptions(int argc, char** argv) {
  BenchOptions opt;
  opt.jobs = ResolveJobs(0);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) opt.quick = true;
    if (std::strcmp(argv[i], "--cache") == 0) opt.cache = true;
    if (std::strcmp(argv[i], "--plan") == 0) opt.plan = true;
    if (std::strcmp(argv[i], "--csv") == 0) opt.csv = true;
    if (std::strcmp(argv[i], "--metrics") == 0) opt.metrics = true;
    if (std::strncmp(argv[i], "--metrics=", 10) == 0) {
      opt.metrics = true;
      opt.metrics_file = argv[i] + 10;
    }
    if (std::strncmp(argv[i], "--trace=", 8) == 0) opt.trace_file = argv[i] + 8;
    if (std::strcmp(argv[i], "--analyze") == 0) opt.analyze = true;
    if (std::strcmp(argv[i], "--timeline") == 0) opt.timeline = true;
    if (std::strncmp(argv[i], "--timeline=", 11) == 0) {
      opt.timeline = true;
      opt.timeline_file = argv[i] + 11;
    }
    if (std::strncmp(argv[i], "--timeline-window=", 18) == 0) {
      opt.timeline = true;
      opt.timeline_window = std::strtod(argv[i] + 18, nullptr);
    }
    if (std::strcmp(argv[i], "--flight") == 0) opt.flight = true;
    if (std::strncmp(argv[i], "--flight=", 9) == 0) {
      opt.flight = true;
      opt.flight_file = argv[i] + 9;
    }
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      opt.jobs = ResolveJobs(
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10)));
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      opt.jobs = ResolveJobs(
          static_cast<std::size_t>(std::strtoull(argv[i] + 7, nullptr, 10)));
    }
    if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      opt.batch =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strncmp(argv[i], "--batch=", 8) == 0) {
      opt.batch =
          static_cast<std::size_t>(std::strtoull(argv[i] + 8, nullptr, 10));
    }
  }
  harness::TablePrinter::SetCsvMode(opt.csv);
  if (opt.metrics) obs::SetMetricsEnabled(true);
  if (opt.flight) obs::SetFlightEnabled(true);
  if (!opt.trace_file.empty()) {
    detail::TraceStream().open(opt.trace_file);
    if (!detail::TraceStream()) {
      std::cerr << "cannot open trace file: " << opt.trace_file << "\n";
      std::exit(2);
    }
    detail::TraceSinkSlot() =
        std::make_unique<obs::JsonLinesTraceSink>(detail::TraceStream());
  }
  if (opt.analyze) {
    detail::AnalyzeSinkSlot() = std::make_unique<obs::MemoryTraceSink>();
  }
  if (detail::TraceSinkSlot() != nullptr &&
      detail::AnalyzeSinkSlot() != nullptr) {
    detail::TeeSinkSlot() = std::make_unique<obs::TeeTraceSink>(
        *detail::TraceSinkSlot(), *detail::AnalyzeSinkSlot());
    obs::SetGlobalTraceSink(detail::TeeSinkSlot().get());
  } else if (detail::TraceSinkSlot() != nullptr) {
    obs::SetGlobalTraceSink(detail::TraceSinkSlot().get());
  } else if (detail::AnalyzeSinkSlot() != nullptr) {
    obs::SetGlobalTraceSink(detail::AnalyzeSinkSlot().get());
  }
  opt.start = std::chrono::steady_clock::now();
  return opt;
}

/// Wall-clock + throughput summary every bench prints before exiting: the
/// whole process, set-up included, so it is a smoke number, not a
/// measurement (the repeatable one is perfbench; see BENCHMARK.json).
/// `queries` = 0 for benches that measure structure, not query replay; qps
/// is omitted then.
inline void FinishBench(const BenchOptions& opt, std::size_t queries = 0) {
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - opt.start)
          .count();
  const double qps =
      queries > 0 && wall_ms > 0 ? 1000.0 * static_cast<double>(queries) /
                                       wall_ms
                                 : 0.0;
  std::ostringstream human;
  human << "\nwall-clock: " << harness::TablePrinter::Num(wall_ms, 1)
        << " ms (jobs=" << opt.jobs;
  if (queries > 0) {
    human << ", " << queries << " queries, "
          << harness::TablePrinter::Num(qps, 1) << " q/s";
  }
  human << ")\n";
  std::cout << human.str();
  if (opt.metrics) {
    if (opt.metrics_file.empty()) {
      std::cout << "metrics: ";
      obs::Registry::Global().WriteJson(std::cout);
      std::cout << "\n";
    } else {
      std::ofstream mf(opt.metrics_file);
      if (!mf) {
        std::cerr << "cannot open metrics file: " << opt.metrics_file << "\n";
        std::exit(2);
      }
      obs::Registry::Global().WriteJson(mf);
      mf << "\n";
    }
  }
  obs::TraceSink* installed =
      detail::TeeSinkSlot() != nullptr
          ? static_cast<obs::TraceSink*>(detail::TeeSinkSlot().get())
          : detail::TraceSinkSlot() != nullptr
                ? static_cast<obs::TraceSink*>(detail::TraceSinkSlot().get())
                : static_cast<obs::TraceSink*>(detail::AnalyzeSinkSlot().get());
  if (installed != nullptr && obs::GetGlobalTraceSink() == installed) {
    obs::SetGlobalTraceSink(nullptr);
    if (detail::AnalyzeSinkSlot() != nullptr) {
      // In-process post-hoc report over everything this bench traced. The
      // theorem-drift comparison needs the system model — that is
      // lorm-analyze's job (--expect); here we report distributions, load
      // profiles and anomalies.
      const auto report =
          obs::AnalyzeTraces(detail::AnalyzeSinkSlot()->Take());
      std::cout << "\n";
      obs::RenderReport(std::cout, report);
      if (opt.flight && !report.anomalies.empty()) {
        // Every detected anomaly ships with the flight recorder's view of
        // the protocol events that led up to it.
        std::cout << "\nflight recorder (dumped on anomaly):\n";
        obs::DumpFlightOnAnomaly(report, std::cout);
      }
    }
    detail::TeeSinkSlot().reset();
    detail::AnalyzeSinkSlot().reset();
    detail::TraceSinkSlot().reset();
    detail::TraceStream().close();
  }
  if (opt.flight && !opt.flight_file.empty()) {
    std::ofstream ff(opt.flight_file);
    if (!ff) {
      std::cerr << "cannot open flight file: " << opt.flight_file << "\n";
      std::exit(2);
    }
    obs::FlightRecorder::Global().WriteJsonLines(ff);
  }
}

/// One sampler per harness run (--timeline), or nullptr when telemetry is
/// off. `default_window` is the bench's natural bucket width in sim
/// seconds (churn: sim time; failures: 1.0 so each phase owns a window);
/// --timeline-window overrides it.
inline std::unique_ptr<obs::TimelineSampler> MakeTimelineSampler(
    const BenchOptions& opt, double default_window) {
  if (!opt.timeline) return nullptr;
  obs::TimelineConfig cfg;
  cfg.window = opt.timeline_window > 0 ? opt.timeline_window : default_window;
  return std::make_unique<obs::TimelineSampler>(cfg);
}

/// Writes a bench's timeline sample to --timeline=<file>, or to stdout
/// under a header when no file was given. Call after the harness finished
/// (the sampler must be Finish()ed by then).
inline void WriteTimeline(const BenchOptions& opt,
                          const obs::TimelineSampler& sampler) {
  if (!opt.timeline) return;
  if (opt.timeline_file.empty()) {
    std::cout << "\ntimeline:\n";
    sampler.WriteJsonLines(std::cout);
    return;
  }
  // Benches can call this once per system; append after the first write so
  // one file carries the whole run.
  static bool opened = false;
  std::ofstream tf(opt.timeline_file,
                   opened ? std::ios::app : std::ios::trunc);
  if (!tf) {
    std::cerr << "cannot open timeline file: " << opt.timeline_file << "\n";
    std::exit(2);
  }
  opened = true;
  sampler.WriteJsonLines(tf);
}

/// The paper's setup, or a proportionally reduced one for --quick runs.
inline harness::Setup FigureSetup(const BenchOptions& opt) {
  harness::Setup s = opt.quick ? harness::Setup::Quick() : harness::Setup::Paper();
  s.cache = opt.cache;
  s.plan = opt.plan;
  return s;
}

inline analysis::SystemModel ModelOf(const harness::Setup& s) {
  analysis::SystemModel m;
  m.n = s.nodes;
  m.m = s.attributes;
  m.k = s.infos_per_attribute;
  m.d = s.dimension;
  return m;
}

inline void PrintSetup(const harness::Setup& s, std::size_t queries = 0) {
  std::cout << "setup: n=" << s.nodes << " nodes, m=" << s.attributes
            << " attributes, k=" << s.infos_per_attribute
            << " pieces/attribute, Cycloid d=" << s.dimension << ", Chord "
            << s.chord_bits << "-bit";
  if (queries > 0) std::cout << ", " << queries << " queries/point";
  std::cout << "\n\n";
}

}  // namespace lorm::bench
