// The measurement loop: rounds of (set-up, op stream) over every system,
// min-of-replay timing, the exact-answer and determinism checks, and the
// metric definitions of README.md.
#include <algorithm>
#include <cctype>
#include <climits>
#include <cmath>
#include <fstream>

#include "bench.hpp"
#include "obs/metrics.hpp"
#include "replay.hpp"

namespace perfbench {
namespace {

namespace ld = lorm::discovery;

/// Ops run per system before switching to the next system. Small enough
/// that a slow stretch of the machine (a few ms) lands on every system.
constexpr std::size_t kBlock = 16;
constexpr std::int64_t kNever = LLONG_MAX;

/// Per (system, op): the minimum wall times and the exact counts the
/// determinism guard compares across replays.
struct OpStat {
  std::int64_t min_ns = kNever;         ///< untraced op time
  std::int64_t min_traced_ns = kNever;  ///< traced Query() time
  std::int64_t min_route = kNever;
  std::int64_t min_walk = kNever;
  std::int64_t min_join = kNever;
  std::int64_t min_layers = kNever;  ///< route + walk_scan + join
  std::int64_t min_adv_ns = kNever;  ///< summed Advertise() calls of a write
  bool seen = false;
  bool traced_seen = false;
  bool failed = false;
  std::size_t lookups = 0;
  HopCount hops = 0;
  std::size_t visited = 0;
  std::uint64_t maint_msgs = 0;
  std::uint64_t allocs = 0;
  std::size_t raw_matches = 0;
  std::size_t adverts = 0;
};

/// Registry counters read around each traced Query().
struct Counters {
  std::uint64_t result_hits = 0, result_misses = 0;
  std::uint64_t route_hits = 0, route_misses = 0;
  std::uint64_t plan_queries = 0, early_exits = 0, subs_skipped = 0;

  static Counters Read() {
    auto& reg = lorm::obs::Registry::Global();
    static auto& rh = reg.GetCounter("lorm.cache.result.hits");
    static auto& rm = reg.GetCounter("lorm.cache.result.misses");
    static auto& th = reg.GetCounter("lorm.cache.route.hits");
    static auto& tm = reg.GetCounter("lorm.cache.route.misses");
    static auto& pq = reg.GetCounter("lorm.plan.queries");
    static auto& pe = reg.GetCounter("lorm.plan.early_exits");
    static auto& ps = reg.GetCounter("lorm.plan.subs_skipped");
    return {rh.Value(), rm.Value(), th.Value(), tm.Value(),
            pq.Value(), pe.Value(), ps.Value()};
  }
  void AddDelta(const Counters& a, const Counters& b) {
    result_hits += b.result_hits - a.result_hits;
    result_misses += b.result_misses - a.result_misses;
    route_hits += b.route_hits - a.route_hits;
    route_misses += b.route_misses - a.route_misses;
    plan_queries += b.plan_queries - a.plan_queries;
    early_exits += b.early_exits - a.early_exits;
    subs_skipped += b.subs_skipped - a.subs_skipped;
  }
};

struct SystemRun {
  lorm::harness::SystemKind kind{};
  std::string name;
  std::string key;  ///< lower-case name, the metric prefix
  std::unique_ptr<ld::DiscoveryService> svc;
  /// Traced runs of cache-on workloads replay on an identical twin: the
  /// route caches learn from every lookup, so replaying on `svc` itself
  /// would change its later routes.
  std::unique_ptr<ld::DiscoveryService> twin;
  std::unique_ptr<lorm::cache::ResultCache> model;  ///< twin's result cache
  ld::QueryScratch scratch;
  ld::QueryScratch replay_scratch;
  LayerSample sample;
  std::vector<OpStat> ops;
  std::vector<double> build_ms, advertise_ms, warm_ms;
  Counters counters;
  std::size_t traced_queries = 0;  ///< Query() calls the counters cover
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

void Mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
}

/// The oracle's answer to every query op, indexed by op. Each write is
/// applied to the index before the ops that follow it, as in the op stream.
std::vector<std::vector<NodeAddr>> ExpectedAnswers(const WorkloadSpec& spec) {
  Oracle oracle(spec.workload->registry());
  for (const auto& info : spec.infos) oracle.Add(info);
  std::vector<std::vector<NodeAddr>> expected(spec.ops.size());
  for (std::size_t i = 0; i < spec.ops.size(); ++i) {
    const Op& op = spec.ops[i];
    if (op.kind == OpKind::kQuery) expected[i] = oracle.Answer(op.query);
    if (op.kind == OpKind::kLeave) oracle.Leave(op.node);
    for (const auto& info : op.infos) oracle.Add(info);
  }
  return expected;
}

class Runner {
 public:
  Runner(const WorkloadSpec& spec, const RunOptions& opt)
      : spec_(spec),
        opt_(opt),
        origin_(Clock::now()),
        expected_(ExpectedAnswers(spec)) {
    for (const auto kind : opt.systems) {
      SystemRun s;
      s.kind = kind;
      s.name = lorm::harness::SystemName(kind);
      for (const char c : s.name) {
        s.key += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      s.ops.resize(spec.ops.size());
      systems_.push_back(std::move(s));
    }
  }

  RunOutput Run() {
    // A traced run alternates untraced and traced rounds, so the two
    // Query() timings it compares see the same machine conditions.
    const std::size_t rounds = opt_.trace ? spec_.rounds + spec_.rounds % 2 : spec_.rounds;
    for (std::size_t r = 0; r < rounds; ++r) {
      const bool traced = opt_.trace && r % 2 == 1;
      lorm::obs::SetMetricsEnabled(traced);
      RunRound(traced);
    }
    lorm::obs::SetMetricsEnabled(false);
    return opt_.trace ? TracedOutput() : UntracedOutput();
  }

 private:
  const lorm::resource::AttributeRegistry& registry() const {
    return spec_.workload->registry();
  }

  void Fail(SystemRun& s, std::size_t i, const std::string& what) {
    if (!s.ops[i].failed) {
      s.ops[i].failed = true;
      ++failed_;
    }
    Note(s.name + " op " + std::to_string(i) + ": " + what);
  }
  void Diverged(SystemRun& s, std::size_t i, const std::string& what) {
    ++violations_;
    Note(s.name + " op " + std::to_string(i) + " not deterministic: " + what);
  }
  void Note(const std::string& msg) {
    if (problems_.size() < 8) problems_.push_back(msg);
  }

  void RunRound(bool traced) {
    const bool cache_twin = traced && spec_.setup.cache;
    // The client's scratch is rebuilt with the systems: its capacities decide
    // how many allocations a query makes, so one kept from the previous round
    // would make the replays differ.
    for (auto& s : systems_) {
      s.scratch = ld::QueryScratch{};
      s.replay_scratch = ld::QueryScratch{};
    }
    // Set-up: build, advertise, answer the warm queries once.
    const auto t0 = Clock::now();
    for (auto& s : systems_) {
      const auto b0 = Clock::now();
      s.svc = lorm::harness::MakeService(s.kind, spec_.setup, registry());
      s.build_ms.push_back(1e-6 * static_cast<double>(NsSince(b0, Clock::now())));
    }
    for (auto& s : systems_) {
      const auto a0 = Clock::now();
      lorm::harness::AdvertiseAll(*s.svc, spec_.infos);
      s.advertise_ms.push_back(1e-6 * static_cast<double>(NsSince(a0, Clock::now())));
    }
    for (auto& s : systems_) {
      const auto w0 = Clock::now();
      for (const auto& q : spec_.warm) s.svc->Query(q, s.scratch);
      s.warm_ms.push_back(1e-6 * static_cast<double>(NsSince(w0, Clock::now())));
    }
    setup_s_.push_back(1e-9 * static_cast<double>(NsSince(t0, Clock::now())));

    for (auto& s : systems_) {
      s.twin.reset();
      s.model.reset();
      if (!cache_twin) continue;
      s.twin = lorm::harness::MakeService(s.kind, spec_.setup, registry());
      lorm::harness::AdvertiseAll(*s.twin, spec_.infos);
      s.model = std::make_unique<lorm::cache::ResultCache>();
      s.model->Enable();
      for (const auto& q : spec_.warm) {
        ReplayQuery(*s.twin, registry(), q, spec_.setup.plan, s.model.get(),
                    s.replay_scratch, SpanSink{}, s.sample);
      }
    }

    for (std::size_t p = 0; p < spec_.passes; ++p) {
      if (traced) spans_.clear();  // keep the spans of the last traced pass
      RunOps(0, spec_.read_prefix, traced);
    }
    RunOps(spec_.read_prefix, spec_.ops.size(), traced);
    for (auto& s : systems_) {
      s.svc.reset();
      s.twin.reset();
    }
  }

  void RunOps(std::size_t begin, std::size_t end, bool traced) {
    for (std::size_t b = begin; b < end; b += kBlock) {
      const std::size_t e = std::min(end, b + kBlock);
      for (std::size_t si = 0; si < systems_.size(); ++si) {
        for (std::size_t i = b; i < e; ++i) {
          if (spec_.ops[i].kind == OpKind::kQuery) {
            RunQuery(si, i, traced);
          } else {
            RunWrite(systems_[si], i);
          }
        }
      }
    }
  }

  void RunQuery(std::size_t si, std::size_t i, bool traced) {
    SystemRun& s = systems_[si];
    OpStat& st = s.ops[i];
    const auto& q = spec_.ops[i].query;

    const Counters c0 = traced ? Counters::Read() : Counters{};
    const std::uint64_t a0 = AllocCount();
    const auto t0 = Clock::now();
    const ld::QueryResult res = s.svc->Query(q, s.scratch);
    const auto t1 = Clock::now();
    const std::uint64_t allocs = AllocCount() - a0;
    const std::int64_t ns = NsSince(t0, t1);

    if (res.providers != expected_[i]) {
      Fail(s, i, "answer differs from the oracle (" +
                     std::to_string(res.providers.size()) + " vs " +
                     std::to_string(expected_[i].size()) + " providers)");
    }
    if (res.stats.failed) Fail(s, i, "routing failed");
    if (!st.seen) {
      st.seen = true;
      st.lookups = res.stats.lookups;
      st.hops = res.stats.dht_hops;
      st.visited = res.stats.visited_nodes;
    } else if (st.lookups != res.stats.lookups || st.hops != res.stats.dht_hops ||
               st.visited != res.stats.visited_nodes) {
      Diverged(s, i, "hops " + std::to_string(st.hops) + " then " +
                         std::to_string(res.stats.dht_hops));
    }
    if (!traced) {
      st.min_ns = std::min(st.min_ns, ns);
      return;
    }

    s.counters.AddDelta(c0, Counters::Read());
    ++s.traced_queries;
    st.min_traced_ns = std::min(st.min_traced_ns, ns);
    if (!st.traced_seen) {
      st.allocs = allocs;
    } else if (st.allocs != allocs) {
      Diverged(s, i, "allocations " + std::to_string(st.allocs) + " then " +
                         std::to_string(allocs));
    }
    const SpanSink sink{&spans_, origin_, static_cast<std::uint32_t>(i),
                        static_cast<std::uint8_t>(si)};
    sink.Add(SpanKind::kQuery, 0, t0, t1);
    const ld::DiscoveryService& target = s.twin ? *s.twin : *s.svc;
    const auto r0 = Clock::now();
    ReplayQuery(target, registry(), q, spec_.setup.plan, s.model.get(),
                s.replay_scratch, sink, s.sample);
    sink.Add(SpanKind::kReplay, 0, r0, Clock::now());
    const LayerSample& ls = s.sample;
    if (ls.lookups != res.stats.lookups || ls.hops != res.stats.dht_hops ||
        ls.visited != res.stats.visited_nodes ||
        ls.per_sub != res.per_sub || ls.providers != res.providers) {
      Fail(s, i, "layer replay differs from Query() (hops " +
                     std::to_string(ls.hops) + " vs " +
                     std::to_string(res.stats.dht_hops) + ", visited " +
                     std::to_string(ls.visited) + " vs " +
                     std::to_string(res.stats.visited_nodes) + ")");
    }
    if (!st.traced_seen) {
      st.traced_seen = true;
      st.raw_matches = ls.raw_matches;
    }
    st.min_route = std::min(st.min_route, ls.route_ns);
    st.min_walk = std::min(st.min_walk, ls.walk_scan_ns);
    st.min_join = std::min(st.min_join, ls.join_ns);
    st.min_layers = std::min(st.min_layers, ls.route_ns + ls.walk_scan_ns + ls.join_ns);
  }

  void RunWrite(SystemRun& s, std::size_t i) {
    const Op& op = spec_.ops[i];
    OpStat& st = s.ops[i];
    ld::DiscoveryService& svc = *s.svc;
    const std::uint64_t m0 = svc.MaintenanceMessages();
    std::int64_t adv_ns = 0;
    std::size_t adverts = 0;
    bool refused = false;
    const auto t0 = Clock::now();
    switch (op.kind) {
      case OpKind::kJoin:
        refused = !svc.JoinNode(op.node);
        if (refused) break;
        [[fallthrough]];
      case OpKind::kAdvertise:
        for (const auto& info : op.infos) {
          const auto a0 = Clock::now();
          svc.Advertise(info);
          adv_ns += NsSince(a0, Clock::now());
          ++adverts;
        }
        break;
      case OpKind::kLeave:
        svc.LeaveNode(op.node);
        break;
      case OpKind::kMaintain:
        svc.Maintain();
        break;
      case OpKind::kQuery:
        break;
    }
    const std::int64_t ns = NsSince(t0, Clock::now());
    const std::uint64_t msgs = svc.MaintenanceMessages() - m0;

    // Every join follows a leave, so no overlay is full; the oracle counts
    // every joiner's tuples.
    if (refused) Fail(s, i, "join refused");
    if (s.twin) ApplyToTwin(s, op);
    if (!st.seen) {
      st.seen = true;
      st.maint_msgs = msgs;
      st.adverts = adverts;
    } else if (st.maint_msgs != msgs) {
      Diverged(s, i, "maintenance messages changed");
    }
    st.min_ns = std::min(st.min_ns, ns);
    st.min_adv_ns = std::min(st.min_adv_ns, adv_ns);
  }

  /// Mirrors a write on the replay twin and its stand-in result cache.
  static void ApplyToTwin(SystemRun& s, const Op& op) {
    ld::DiscoveryService& twin = *s.twin;
    switch (op.kind) {
      case OpKind::kJoin:
        if (!twin.JoinNode(op.node)) return;
        s.model->InvalidateAll();
        for (const auto& info : op.infos) twin.Advertise(info);
        break;
      case OpKind::kAdvertise:
        for (const auto& info : op.infos) {
          twin.Advertise(info);
          s.model->InvalidateAttr(info.attr);
        }
        break;
      case OpKind::kLeave:
        twin.LeaveNode(op.node);
        s.model->InvalidateAll();
        break;
      case OpKind::kMaintain:
        twin.Maintain();
        break;
      case OpKind::kQuery:
        break;
    }
  }

  // ---- Results ------------------------------------------------------------

  void FillCommon(RunOutput& out) {
    std::uint64_t digest = 0xD15C0u;
    for (std::size_t si = 0; si < systems_.size(); ++si) {
      for (std::size_t i = 0; i < spec_.ops.size(); ++i) {
        const OpStat& st = systems_[si].ops[i];
        Mix(digest, (si << 32) | i);
        Mix(digest, st.lookups);
        Mix(digest, st.hops);
        Mix(digest, st.visited);
        Mix(digest, st.maint_msgs);
        if (opt_.trace) {
          Mix(digest, st.allocs);
          Mix(digest, st.raw_matches);
        }
      }
    }
    for (const auto& answer : expected_) {
      for (NodeAddr p : answer) Mix(digest, p);
    }
    out.digest = digest;
    std::size_t n[5] = {0, 0, 0, 0, 0};
    for (const Op& op : spec_.ops) ++n[static_cast<int>(op.kind)];
    for (const auto& s : systems_) {
      out.op_counts.push_back(
          s.name + ": queries=" + std::to_string(n[0]) + " joins=" +
          std::to_string(n[1]) + " leaves=" + std::to_string(n[2]) +
          " maintains=" + std::to_string(n[3]) + " advertises=" +
          std::to_string(n[4]));
    }
    out.query_samples = static_cast<std::size_t>(
        std::count_if(spec_.ops.begin(), spec_.ops.end(),
                      [](const Op& op) { return op.kind == OpKind::kQuery; }));
    out.attempted = systems_.size() * spec_.ops.size();
    out.failed = failed_;
    out.determinism_violations = violations_;
    out.correct = failed_ == 0 && violations_ == 0;
    out.problems = problems_;
  }

  /// Mean over a system's query ops of f(op stat).
  template <typename F>
  double QueryMean(const SystemRun& s, F f) const {
    double sum = 0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < spec_.ops.size(); ++i) {
      if (spec_.ops[i].kind != OpKind::kQuery) continue;
      sum += f(s.ops[i]);
      ++n;
    }
    return n == 0 ? 0 : sum / static_cast<double>(n);
  }

  /// Mean min-of-replay time (µs) of a system's writes of `kind`.
  double WriteMeanUs(const SystemRun& s, OpKind kind) const {
    double sum = 0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < spec_.ops.size(); ++i) {
      if (spec_.ops[i].kind != kind) continue;
      sum += 1e-3 * static_cast<double>(s.ops[i].min_ns);
      ++n;
    }
    return n == 0 ? 0 : sum / static_cast<double>(n);
  }

  RunOutput UntracedOutput() {
    RunOutput out;
    FillCommon(out);
    auto& m = out.metrics;
    m.push_back({"setup_s", Median(setup_s_), "s"});
    m.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
    double hops = 0, visited = 0, queries = 0, update_ns = 0;
    for (const auto& s : systems_) {
      std::vector<double> us;
      for (std::size_t i = 0; i < spec_.ops.size(); ++i) {
        const OpStat& st = s.ops[i];
        if (spec_.ops[i].kind == OpKind::kQuery) {
          us.push_back(1e-3 * static_cast<double>(st.min_ns));
          hops += st.hops;
          visited += static_cast<double>(st.visited);
          queries += 1;
        } else {
          update_ns += static_cast<double>(st.min_ns);
        }
      }
      m.push_back({s.key + ".query_p50_us", Percentile(us, 0.50), "us"});
      m.push_back({s.key + ".query_p99_us", Percentile(us, 0.99), "us"});
    }
    m.push_back({"hops_per_query", queries > 0 ? hops / queries : 0, "hops"});
    m.push_back({"visited_per_query", queries > 0 ? visited / queries : 0, "nodes"});
    m.push_back({"update_s", 1e-9 * update_ns, "s"});
    return out;
  }

  RunOutput TracedOutput() {
    RunOutput out;
    FillCommon(out);
    auto& m = out.metrics;
    std::vector<double> traced_p50, untraced_p50;
    for (const auto& s : systems_) {
      const std::string& n = s.key;
      m.push_back({n + ".build_ms", Median(s.build_ms), "ms"});
      m.push_back({n + ".advertise_all_ms", Median(s.advertise_ms), "ms"});
      m.push_back({n + ".warm_ms", Median(s.warm_ms), "ms"});

      double lookups = 0, hops = 0, route_ns = 0, raw = 0, providers = 0;
      std::vector<double> traced_us, untraced_us;
      for (std::size_t i = 0; i < spec_.ops.size(); ++i) {
        if (spec_.ops[i].kind != OpKind::kQuery) continue;
        const OpStat& st = s.ops[i];
        lookups += static_cast<double>(st.lookups);
        hops += st.hops;
        route_ns += static_cast<double>(st.min_route);
        raw += static_cast<double>(st.raw_matches);
        providers += static_cast<double>(expected_[i].size());
        traced_us.push_back(static_cast<double>(st.min_traced_ns));
        untraced_us.push_back(static_cast<double>(st.min_ns));
      }
      traced_p50.push_back(Percentile(traced_us, 0.5));
      untraced_p50.push_back(Percentile(untraced_us, 0.5));
      const double queries = static_cast<double>(traced_us.size());
      m.push_back({n + ".route_ns", lookups > 0 ? route_ns / lookups : 0, "ns"});
      m.push_back({n + ".hops_per_lookup", lookups > 0 ? hops / lookups : 0, "hops"});
      m.push_back({n + ".lookups_per_query", queries > 0 ? lookups / queries : 0, "count"});
      m.push_back({n + ".walk_scan_ns",
                   QueryMean(s, [](const OpStat& st) { return static_cast<double>(st.min_walk); }),
                   "ns"});
      m.push_back({n + ".visited_per_query",
                   QueryMean(s, [](const OpStat& st) { return static_cast<double>(st.visited); }),
                   "nodes"});
      m.push_back({n + ".matches_per_query",
                   QueryMean(s, [](const OpStat& st) { return static_cast<double>(st.raw_matches); }),
                   "count"});
      m.push_back({n + ".join_ns",
                   QueryMean(s, [](const OpStat& st) { return static_cast<double>(st.min_join); }),
                   "ns"});
      m.push_back({n + ".providers_per_match", raw > 0 ? providers / raw : 0, "ratio"});
      m.push_back({n + ".overhead_ns", QueryMean(s, [](const OpStat& st) {
                     return static_cast<double>(st.min_traced_ns - st.min_layers);
                   }),
                   "ns"});
      m.push_back({n + ".allocs_per_query",
                   QueryMean(s, [](const OpStat& st) { return static_cast<double>(st.allocs); }),
                   "count"});
      const Counters& c = s.counters;
      const auto rate = [](std::uint64_t num, std::uint64_t den) {
        return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
      };
      m.push_back({n + ".result_hit_rate",
                   rate(c.result_hits, c.result_hits + c.result_misses), "ratio"});
      // D1HT's one-hop lookups resolve locally and never use a route cache.
      if (s.kind != lorm::harness::SystemKind::kD1ht) {
        m.push_back({n + ".route_hit_rate",
                     rate(c.route_hits, c.route_hits + c.route_misses), "ratio"});
      }
      m.push_back({n + ".plan_early_exit_rate", rate(c.early_exits, c.plan_queries),
                   "ratio"});
      m.push_back({n + ".subs_skipped_per_query",
                   rate(c.subs_skipped, s.traced_queries), "count"});
      m.push_back({n + ".join_us", WriteMeanUs(s, OpKind::kJoin), "us"});
      m.push_back({n + ".leave_us", WriteMeanUs(s, OpKind::kLeave), "us"});
      m.push_back({n + ".maintain_ms", 1e-3 * WriteMeanUs(s, OpKind::kMaintain), "ms"});
      double msgs = 0, events = 0, adv_ns = 0, adverts = 0;
      for (std::size_t i = 0; i < spec_.ops.size(); ++i) {
        const OpKind kind = spec_.ops[i].kind;
        const OpStat& st = s.ops[i];
        if (kind == OpKind::kQuery) continue;
        if (kind != OpKind::kAdvertise) {
          msgs += static_cast<double>(st.maint_msgs);
          events += 1;
        }
        adv_ns += static_cast<double>(st.min_adv_ns);
        adverts += static_cast<double>(st.adverts);
      }
      m.push_back({n + ".maint_msgs_per_event", events > 0 ? msgs / events : 0, "count"});
      m.push_back({n + ".advertise_us", adverts > 0 ? 1e-3 * adv_ns / adverts : 0, "us"});
    }
    const double u = Median(untraced_p50);
    m.push_back({"trace_overhead_pct", u > 0 ? 100.0 * (Median(traced_p50) / u - 1.0) : 0,
                 "%"});
    m.push_back({"fail_rate",
                 out.attempted > 0 ? static_cast<double>(out.failed) /
                                         static_cast<double>(out.attempted)
                                   : 0,
                 "fraction"});
    WriteSpans();
    return out;
  }

  void WriteSpans() const {
    if (opt_.span_file.empty()) return;
    static const char* kNames[] = {"query", "replay", "route", "walk_scan", "join"};
    std::ofstream os(opt_.span_file);
    for (const Span& sp : spans_) {
      os << "{\"query\":" << sp.query_id << ",\"system\":\""
         << systems_[sp.system].name << "\",\"span\":\""
         << kNames[static_cast<int>(sp.kind)] << "\"";
      if (sp.kind >= SpanKind::kRoute) {
        os << ",\"parent\":\"replay\",\"sub\":" << sp.sub;
      }
      os << ",\"start_ns\":" << sp.start_ns << ",\"dur_ns\":" << sp.dur_ns << "}\n";
    }
  }

  const WorkloadSpec& spec_;
  const RunOptions& opt_;
  const Clock::time_point origin_;
  const std::vector<std::vector<NodeAddr>> expected_;  ///< oracle answers
  std::vector<SystemRun> systems_;
  std::vector<double> setup_s_;
  std::vector<Span> spans_;
  std::uint64_t failed_ = 0;
  std::uint64_t violations_ = 0;
  std::vector<std::string> problems_;
};

}  // namespace

RunOutput RunWorkload(const WorkloadSpec& spec, const RunOptions& opt) {
  Runner runner(spec, opt);
  return runner.Run();
}

}  // namespace perfbench
