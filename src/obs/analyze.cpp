#include "obs/analyze.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "obs/flight.hpp"

namespace lorm::obs {

// ---- Wire-format parsers --------------------------------------------------
//
// A hand-rolled cursor parser over exactly the shape the sink writes. Being
// strict about key order is deliberate: the round-trip test then pins the
// wire format from both sides, so neither the sink nor the parser can gain
// a field the other does not know about.

namespace {

struct Cursor {
  const char* p;
  const char* end;
  std::string err;

  bool Fail(const std::string& what) {
    if (err.empty()) err = what;
    return false;
  }

  bool Literal(std::string_view lit) {
    if (static_cast<std::size_t>(end - p) < lit.size() ||
        std::string_view(p, lit.size()) != lit) {
      return Fail("expected '" + std::string(lit) + "'");
    }
    p += lit.size();
    return true;
  }

  bool Peek(char c) const { return p < end && *p == c; }

  bool U64(std::uint64_t& out) {
    if (p == end || *p < '0' || *p > '9') return Fail("expected number");
    std::uint64_t v = 0;
    while (p < end && *p >= '0' && *p <= '9') {
      v = v * 10 + static_cast<std::uint64_t>(*p - '0');
      ++p;
    }
    out = v;
    return true;
  }

  bool Number(double& out) {
    const char* start = p;
    if (Peek('-')) ++p;
    while (p < end && ((*p >= '0' && *p <= '9') || *p == '.' || *p == 'e' ||
                       *p == 'E' || *p == '+' || *p == '-')) {
      ++p;
    }
    if (p == start) return Fail("expected number");
    out = std::strtod(std::string(start, p).c_str(), nullptr);
    return true;
  }

  bool Bool(bool& out) {
    if (Peek('t')) {
      out = true;
      return Literal("true");
    }
    out = false;
    return Literal("false");
  }

  bool String(std::string& out) {
    out.clear();
    if (!Literal("\"")) return false;
    while (p < end && *p != '"') {
      if (*p == '\\') {
        ++p;
        if (p == end) return Fail("truncated escape");
        switch (*p) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (end - p < 5) return Fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 1; i <= 4; ++i) {
              const char c = p[i];
              code <<= 4;
              if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
              else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
              else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
              else return Fail("bad \\u escape");
            }
            // The sink only escapes control characters this way; encode the
            // general case as UTF-8 anyway so the parser is total.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            p += 4;
            break;
          }
          default:
            return Fail("unknown escape");
        }
        ++p;
      } else {
        out += *p++;
      }
    }
    return Literal("\"");
  }

  /// `,"key":` after a previous value, or `"key":` right after '{' / '['.
  bool Key(std::string_view name, bool first = false) {
    if (!first && !Literal(",")) return false;
    if (!Literal("\"") || !Literal(name) || !Literal("\":")) {
      return Fail("expected key '" + std::string(name) + "'");
    }
    return true;
  }

  /// Optional key (the dur_ns fields, absent in pre-timing traces):
  /// consumes and parses the value when present, else leaves `out` at 0.
  bool OptionalU64Key(std::string_view name, std::uint64_t& out) {
    out = 0;
    const char* save = p;
    if (!Peek(',')) return true;
    ++p;
    if (static_cast<std::size_t>(end - p) > name.size() + 3 && *p == '"' &&
        std::string_view(p + 1, name.size()) == name &&
        p[1 + name.size()] == '"' && p[2 + name.size()] == ':') {
      p += name.size() + 3;
      return U64(out);
    }
    p = save;
    return true;
  }

  /// Optional `,"key":` lookahead for non-scalar values: consumes the key
  /// and returns true when the next token is exactly it, else restores the
  /// cursor and returns false (the key was absent — not an error).
  bool OptionalKeyStart(std::string_view name) {
    const char* save = p;
    if (!Peek(',')) return false;
    ++p;
    if (static_cast<std::size_t>(end - p) > name.size() + 3 && *p == '"' &&
        std::string_view(p + 1, name.size()) == name &&
        p[1 + name.size()] == '"' && p[2 + name.size()] == ':') {
      p += name.size() + 3;
      return true;
    }
    p = save;
    return false;
  }
};

bool ParseLookup(Cursor& c, LookupTrace& l) {
  if (!c.Literal("{") || !c.Key("path", /*first=*/true) || !c.Literal("["))
    return false;
  l.path.clear();
  while (!c.Peek(']')) {
    if (!l.path.empty() && !c.Literal(",")) return false;
    std::uint64_t addr = 0;
    if (!c.U64(addr)) return false;
    l.path.push_back(static_cast<NodeAddr>(addr));
  }
  std::uint64_t hops = 0;
  if (!c.Literal("]") || !c.Key("hops") || !c.U64(hops)) return false;
  l.hops = static_cast<HopCount>(hops);
  if (!c.Key("ok") || !c.Bool(l.ok)) return false;
  if (!c.Key("dead_skips") || !c.U64(l.dead_links_skipped)) return false;
  if (!c.OptionalU64Key("dur_ns", l.duration_ns)) return false;
  if (!c.OptionalU64Key("cache_hits", l.cache_hits)) return false;
  return c.Literal("}");
}

bool ParseProbe(Cursor& c, ProbeTrace& p) {
  std::uint64_t node = 0;
  if (!c.Literal("{") || !c.Key("node", /*first=*/true) || !c.U64(node))
    return false;
  p.node = static_cast<NodeAddr>(node);
  if (!c.Key("hits") || !c.U64(p.hits)) return false;
  if (!c.Key("dir_size") || !c.U64(p.dir_size)) return false;
  if (!c.OptionalU64Key("replica_hits", p.replica_hits)) return false;
  return c.Literal("}");
}

bool ParseSub(Cursor& c, SubQueryTrace& sub) {
  std::uint64_t attr = 0;
  if (!c.Literal("{") || !c.Key("attr", /*first=*/true) || !c.U64(attr))
    return false;
  sub.attr = static_cast<AttrId>(attr);
  if (!c.Key("lookups") || !c.Literal("[")) return false;
  sub.lookups.clear();
  while (!c.Peek(']')) {
    if (!sub.lookups.empty() && !c.Literal(",")) return false;
    if (!ParseLookup(c, sub.lookups.emplace_back())) return false;
  }
  if (!c.Literal("]") || !c.Key("probes") || !c.Literal("[")) return false;
  sub.probes.clear();
  while (!c.Peek(']')) {
    if (!sub.probes.empty() && !c.Literal(",")) return false;
    if (!ParseProbe(c, sub.probes.emplace_back())) return false;
  }
  if (!c.Literal("]")) return false;
  sub.plan_candidates = -1;
  if (c.OptionalKeyStart("cand")) {  // absent when the planner is off
    std::uint64_t cand = 0;
    if (!c.U64(cand)) return false;
    sub.plan_candidates = static_cast<std::int64_t>(cand);
  }
  return c.Literal("}");
}

}  // namespace

bool ParseTraceLine(std::string_view line, QueryTrace& out,
                    std::string* error) {
  out = QueryTrace{};
  Cursor c{line.data(), line.data() + line.size(), {}};
  bool ok = c.Literal("{") && c.Key("system", /*first=*/true) &&
            c.String(out.system) && c.Key("query") && c.U64(out.query_id) &&
            c.OptionalU64Key("dur_ns", out.duration_ns);
  if (ok && c.OptionalKeyStart("plan")) {  // absent when the planner is off
    ok = c.Literal("[");
    while (ok && !c.Peek(']')) {
      if (!out.plan_order.empty() && !c.Literal(",")) {
        ok = false;
        break;
      }
      std::uint64_t idx = 0;
      ok = c.U64(idx);
      if (ok) out.plan_order.push_back(static_cast<std::uint32_t>(idx));
    }
    ok = ok && c.Literal("]");
  }
  ok = ok && c.Key("subs") && c.Literal("[");
  if (ok) {
    while (ok && !c.Peek(']')) {
      if (!out.subs.empty() && !c.Literal(",")) {
        ok = false;
        break;
      }
      ok = ParseSub(c, out.subs.emplace_back());
    }
    ok = ok && c.Literal("]") && c.Literal("}");
  }
  if (ok && c.p != c.end) ok = c.Fail("trailing characters");
  if (!ok && error != nullptr) {
    std::ostringstream os;
    os << (c.err.empty() ? "malformed trace line" : c.err) << " (offset "
       << (c.p - line.data()) << ")";
    *error = os.str();
  }
  return ok;
}

std::vector<QueryTrace> ParseTraceStream(std::istream& is) {
  std::vector<QueryTrace> traces;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::string err;
    if (!ParseTraceLine(line, traces.emplace_back(), &err)) {
      throw ConfigError("trace line " + std::to_string(lineno) + ": " + err);
    }
  }
  return traces;
}

bool ParseMetricsJson(std::string_view json, ParsedMetrics& out,
                      std::string* error) {
  out = ParsedMetrics{};
  Cursor c{json.data(), json.data() + json.size(), {}};
  bool ok = c.Literal("{") && c.Key("counters", /*first=*/true) &&
            c.Literal("{");
  if (ok) {
    bool first = true;
    while (ok && !c.Peek('}')) {
      if (!first && !c.Literal(",")) { ok = false; break; }
      first = false;
      std::string name;
      std::uint64_t value = 0;
      ok = c.String(name) && c.Literal(":") && c.U64(value);
      if (ok) out.counters[name] = value;
    }
    ok = ok && c.Literal("}") && c.Key("histograms") && c.Literal("{");
  }
  if (ok) {
    bool first = true;
    while (ok && !c.Peek('}')) {
      if (!first && !c.Literal(",")) { ok = false; break; }
      first = false;
      std::string name;
      ParsedMetrics::Hist h;
      ok = c.String(name) && c.Literal(":{") &&
           c.Key("bounds", /*first=*/true) && c.Literal("[");
      while (ok && !c.Peek(']')) {
        if (!h.bounds.empty() && !c.Literal(",")) { ok = false; break; }
        double b = 0;
        ok = c.Number(b);
        if (ok) h.bounds.push_back(b);
      }
      ok = ok && c.Literal("]") && c.Key("counts") && c.Literal("[");
      while (ok && !c.Peek(']')) {
        if (!h.counts.empty() && !c.Literal(",")) { ok = false; break; }
        std::uint64_t n = 0;
        ok = c.U64(n);
        if (ok) h.counts.push_back(n);
      }
      ok = ok && c.Literal("]") && c.Key("count") && c.U64(h.count) &&
           c.Key("sum") && c.Number(h.sum) && c.Literal("}");
      if (ok) out.histograms[name] = std::move(h);
    }
    ok = ok && c.Literal("}") && c.Literal("}");
  }
  if (!ok && error != nullptr) {
    *error = (c.err.empty() ? "malformed metrics json" : c.err) +
             " (offset " + std::to_string(c.p - json.data()) + ")";
  }
  return ok;
}

// ---- Aggregation ----------------------------------------------------------

const char* AnomalyKindName(Anomaly::Kind kind) {
  switch (kind) {
    case Anomaly::Kind::kRoutingLoop:
      return "routing-loop";
    case Anomaly::Kind::kHopBoundExceeded:
      return "hop-bound-exceeded";
    case Anomaly::Kind::kDeadLinkBurst:
      return "dead-link-burst";
    case Anomaly::Kind::kZeroHitWalkOverrun:
      return "zero-hit-walk-overrun";
    case Anomaly::Kind::kTailLatencyDrift:
      return "tail-latency-drift";
  }
  return "?";
}

namespace {

/// Fixed-precision number for deterministic reports.
std::string Num(double v, int digits = 2) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(digits) << v;
  return os.str();
}

/// The smallest Cycloid dimension whose full population d * 2^d holds n.
unsigned InferDimension(std::size_t n) {
  unsigned d = 1;
  while (static_cast<std::uint64_t>(d) * (std::uint64_t{1} << d) < n &&
         d < 32) {
    ++d;
  }
  return d;
}

/// First node repeated in a lookup path, or kNoNode. Paths are short
/// (bounded by the substrate hop caps), so the quadratic scan is fine.
NodeAddr FirstRepeatedNode(const std::vector<NodeAddr>& path) {
  for (std::size_t i = 0; i < path.size(); ++i) {
    for (std::size_t j = i + 1; j < path.size(); ++j) {
      if (path[i] == path[j]) return path[i];
    }
  }
  return kNoNode;
}

struct SystemAccumulator {
  std::vector<double> hops_per_query;
  std::vector<double> hops_per_lookup;
  std::vector<double> visited_per_query;
  std::vector<double> query_dur_us;
  std::vector<double> lookup_dur_us;
  LatencyHistogram dur_hist;
  std::map<NodeAddr, std::uint64_t> probe_counts;
  std::size_t lookups = 0;
  std::size_t failed_lookups = 0;
  std::uint64_t dead_link_skips = 0;
  std::uint64_t probes = 0;
  std::size_t queries = 0;
  std::size_t subs = 0;
  std::size_t planned_queries = 0;
  std::size_t reordered_queries = 0;
  std::size_t subs_skipped = 0;
};

}  // namespace

TraceReport AnalyzeTraces(std::vector<QueryTrace> traces,
                          const AnomalyConfig& cfg) {
  // Parallel replay completes traces in worker order; query ids restore the
  // canonical order so the report is a pure function of the trace *set*.
  std::sort(traces.begin(), traces.end(),
            [](const QueryTrace& a, const QueryTrace& b) {
              if (a.query_id != b.query_id) return a.query_id < b.query_id;
              return a.system < b.system;
            });

  TraceReport report;
  report.traces = traces.size();

  // Pass 1: the node universe, for the inferred hop bounds.
  NodeAddr max_addr = 0;
  bool any_node = false;
  for (const QueryTrace& t : traces) {
    for (const SubQueryTrace& sub : t.subs) {
      for (const LookupTrace& l : sub.lookups) {
        for (const NodeAddr a : l.path) {
          max_addr = std::max(max_addr, a);
          any_node = true;
        }
      }
      for (const ProbeTrace& p : sub.probes) {
        if (p.node != kNoNode) {
          max_addr = std::max(max_addr, p.node);
          any_node = true;
        }
      }
    }
  }
  const std::size_t n =
      cfg.nodes != 0 ? cfg.nodes
                     : (any_node ? static_cast<std::size_t>(max_addr) + 1 : 0);
  const unsigned d =
      cfg.dimension != 0 ? cfg.dimension : (n != 0 ? InferDimension(n) : 0);
  report.inferred_nodes = n;
  report.inferred_dimension = d;
  const double log_n = n > 1 ? std::log2(static_cast<double>(n)) : 1.0;
  const double chord_bound = 2.0 * std::ceil(log_n) + cfg.chord_slack;
  const double cycloid_bound = 4.0 * d + cfg.cycloid_slack;

  // Pass 2: per-system accumulation + anomaly detection, in query order.
  std::map<std::string, SystemAccumulator> acc;
  for (const QueryTrace& t : traces) {
    SystemAccumulator& a = acc[t.system];
    ++a.queries;
    // LORM routes on Cycloid; the other three route on Chord rings.
    const bool cycloid = t.system == "LORM";
    const double hop_bound = cycloid ? cycloid_bound : chord_bound;
    if (!t.plan_order.empty()) {
      ++a.planned_queries;
      if (!std::is_sorted(t.plan_order.begin(), t.plan_order.end())) {
        ++a.reordered_queries;
      }
    }
    double hops = 0;
    std::uint64_t visited = 0;
    for (std::size_t s = 0; s < t.subs.size(); ++s) {
      const SubQueryTrace& sub = t.subs[s];
      ++a.subs;
      std::uint64_t sub_hits = 0;
      for (const LookupTrace& l : sub.lookups) {
        ++a.lookups;
        hops += static_cast<double>(l.hops);
        a.hops_per_lookup.push_back(static_cast<double>(l.hops));
        if (l.duration_ns > 0) {
          a.lookup_dur_us.push_back(static_cast<double>(l.duration_ns) / 1e3);
        }
        if (!l.ok) ++a.failed_lookups;
        a.dead_link_skips += l.dead_links_skipped;

        const NodeAddr repeat = FirstRepeatedNode(l.path);
        if (repeat != kNoNode) {
          std::ostringstream detail;
          detail << "node " << repeat << " appears twice in a "
                 << l.path.size() << "-node path";
          report.anomalies.push_back({Anomaly::Kind::kRoutingLoop, t.system,
                                      t.query_id, s, detail.str()});
        }
        if (n != 0 && static_cast<double>(l.hops) > hop_bound) {
          std::ostringstream detail;
          detail << l.hops << " hops > " << (cycloid ? "cycloid" : "chord")
                 << " bound " << hop_bound << " (n=" << n << ", d=" << d
                 << ")";
          report.anomalies.push_back({Anomaly::Kind::kHopBoundExceeded,
                                      t.system, t.query_id, s, detail.str()});
        }
        if (l.dead_links_skipped >= cfg.dead_link_burst) {
          std::ostringstream detail;
          detail << l.dead_links_skipped << " dead links skipped in one "
                 << "lookup (burst threshold " << cfg.dead_link_burst << ")";
          report.anomalies.push_back({Anomaly::Kind::kDeadLinkBurst, t.system,
                                      t.query_id, s, detail.str()});
        }
      }
      for (const ProbeTrace& p : sub.probes) {
        ++a.probes;
        ++visited;
        sub_hits += p.hits;
        ++a.probe_counts[p.node];
      }
      // A planned sub-query that never routed or probed and saw an empty
      // candidate set was pruned by the early exit.
      if (sub.plan_candidates == 0 && sub.lookups.empty() &&
          sub.probes.empty()) {
        ++a.subs_skipped;
      }
      if (sub.probes.size() >= cfg.walk_overrun_probes && sub_hits == 0) {
        std::ostringstream detail;
        detail << sub.probes.size() << " nodes probed without a single hit "
               << "(threshold " << cfg.walk_overrun_probes << ")";
        report.anomalies.push_back({Anomaly::Kind::kZeroHitWalkOverrun,
                                    t.system, t.query_id, s, detail.str()});
      }
    }
    a.hops_per_query.push_back(hops);
    a.visited_per_query.push_back(static_cast<double>(visited));
    if (t.duration_ns > 0) {
      a.query_dur_us.push_back(static_cast<double>(t.duration_ns) / 1e3);
      a.dur_hist.Record(t.duration_ns);
    }
  }

  for (auto& [system, a] : acc) {
    SystemReport sr;
    sr.system = system;
    sr.queries = a.queries;
    sr.lookups = a.lookups;
    sr.failed_lookups = a.failed_lookups;
    sr.dead_link_skips = a.dead_link_skips;
    sr.avg_attrs = a.queries > 0 ? static_cast<double>(a.subs) /
                                       static_cast<double>(a.queries)
                                 : 0.0;
    sr.hops_per_query = Summarize(std::move(a.hops_per_query));
    sr.hops_per_lookup = Summarize(std::move(a.hops_per_lookup));
    sr.visited_per_query = Summarize(std::move(a.visited_per_query));
    sr.query_dur_us = Summarize(std::move(a.query_dur_us));
    sr.lookup_dur_us = Summarize(std::move(a.lookup_dur_us));
    sr.query_tail_ns = SummarizeTail(a.dur_hist);
    if (cfg.p99_drift_ratio > 0.0 && sr.query_tail_ns.count >= 2 &&
        sr.query_tail_ns.p50 > 0 &&
        static_cast<double>(sr.query_tail_ns.p99) >
            cfg.p99_drift_ratio * static_cast<double>(sr.query_tail_ns.p50)) {
      std::ostringstream detail;
      detail << "query p99 " << Num(static_cast<double>(sr.query_tail_ns.p99) / 1e3, 2)
             << " us > " << Num(cfg.p99_drift_ratio, 2) << " x p50 "
             << Num(static_cast<double>(sr.query_tail_ns.p50) / 1e3, 2) << " us";
      report.anomalies.push_back({Anomaly::Kind::kTailLatencyDrift, system, 0,
                                  0, detail.str()});
    }
    sr.planned_queries = a.planned_queries;
    sr.reordered_queries = a.reordered_queries;
    sr.subs_skipped = a.subs_skipped;

    // Per-node load from the probe records (std::map: already addr-sorted,
    // so the profile is deterministic).
    std::vector<double> loads;
    loads.reserve(a.probe_counts.size());
    std::uint64_t peak = 0;
    for (const auto& [node, count] : a.probe_counts) {
      loads.push_back(static_cast<double>(count));
      peak = std::max(peak, count);
    }
    sr.load.nodes = loads.size();
    sr.load.probes = a.probes;
    sr.load.jain = JainFairness(loads);
    sr.load.gini = Gini(loads);
    sr.load.lorenz = LorenzPoints(loads);
    sr.load.max_share =
        a.probes > 0 ? static_cast<double>(peak) / static_cast<double>(a.probes)
                     : 0.0;
    report.systems.push_back(std::move(sr));
  }
  // std::map iteration gave us name order already; keep it explicit.
  std::sort(report.systems.begin(), report.systems.end(),
            [](const SystemReport& x, const SystemReport& y) {
              return x.system < y.system;
            });
  std::stable_sort(report.anomalies.begin(), report.anomalies.end(),
                   [](const Anomaly& x, const Anomaly& y) {
                     if (x.system != y.system) return x.system < y.system;
                     if (x.query_id != y.query_id) return x.query_id < y.query_id;
                     return x.sub_index < y.sub_index;
                   });
  return report;
}

DriftRow EvaluateDrift(std::string system, std::string metric,
                       double observed, double predicted, double tolerance) {
  DriftRow row;
  row.system = std::move(system);
  row.metric = std::move(metric);
  row.observed = observed;
  row.predicted = predicted;
  row.tolerance = tolerance;
  row.drift = predicted != 0.0
                  ? std::abs(observed - predicted) / std::abs(predicted)
                  : (observed == 0.0 ? 0.0 : 1.0);
  row.ok = row.drift <= tolerance;
  return row;
}

bool GatePasses(const TraceReport& report,
                const std::vector<DriftRow>& drift) {
  if (!report.anomalies.empty()) return false;
  for (const DriftRow& row : drift) {
    if (!row.ok) return false;
  }
  return true;
}

// ---- Rendering ------------------------------------------------------------

namespace {

void RenderSummaryRow(std::ostream& os, const char* label, const Summary& s,
                      int digits = 2) {
  os << "    " << std::left << std::setw(16) << label << std::right
     << " mean " << std::setw(10) << Num(s.mean, digits) << "  p50 "
     << std::setw(10) << Num(s.p50, digits) << "  p99 " << std::setw(10)
     << Num(s.p99, digits) << "  max " << std::setw(10) << Num(s.max, digits)
     << "\n";
}

void WriteSummaryJson(std::ostream& os, const Summary& s) {
  os << "{\"count\":" << s.count << ",\"mean\":" << Num(s.mean, 4)
     << ",\"p50\":" << Num(s.p50, 4) << ",\"p99\":" << Num(s.p99, 4)
     << ",\"max\":" << Num(s.max, 4) << "}";
}

}  // namespace

void RenderReport(std::ostream& os, const TraceReport& report,
                  const std::vector<DriftRow>& drift,
                  const ParsedMetrics* metrics) {
  os << "== trace analytics ==\n";
  os << report.traces << " traces";
  if (report.inferred_nodes != 0) {
    os << ", n=" << report.inferred_nodes << " (d=" << report.inferred_dimension
       << ") for the hop bounds";
  }
  os << "\n";

  for (const SystemReport& sr : report.systems) {
    os << "\n" << sr.system << ": " << sr.queries << " queries, "
       << Num(sr.avg_attrs, 2) << " attrs/query, " << sr.lookups
       << " lookups (" << sr.failed_lookups << " failed), "
       << sr.dead_link_skips << " dead-link skips\n";
    RenderSummaryRow(os, "hops/query", sr.hops_per_query);
    RenderSummaryRow(os, "hops/lookup", sr.hops_per_lookup);
    RenderSummaryRow(os, "visited/query", sr.visited_per_query);
    if (sr.query_dur_us.count > 0) {
      RenderSummaryRow(os, "query dur (us)", sr.query_dur_us);
    }
    if (sr.lookup_dur_us.count > 0) {
      RenderSummaryRow(os, "lookup dur (us)", sr.lookup_dur_us);
    }
    if (sr.query_tail_ns.count > 0) {
      const LatencyTail& t = sr.query_tail_ns;
      os << "    " << std::left << std::setw(16) << "query tail (us)"
         << std::right << " p50  " << std::setw(10)
         << Num(static_cast<double>(t.p50) / 1e3, 2) << "  p90 "
         << std::setw(10) << Num(static_cast<double>(t.p90) / 1e3, 2)
         << "  p99 " << std::setw(10)
         << Num(static_cast<double>(t.p99) / 1e3, 2) << "  p999 "
         << std::setw(9) << Num(static_cast<double>(t.p999) / 1e3, 2)
         << "\n";
    }
    const LoadProfile& load = sr.load;
    os << "    load: " << load.probes << " probes over " << load.nodes
       << " nodes, gini " << Num(load.gini, 3) << ", jain "
       << Num(load.jain, 3) << ", max-share " << Num(100.0 * load.max_share, 2)
       << "%, lorenz L50 " << Num(100.0 * LorenzShareAt(load.lorenz, 0.5), 2)
       << "% L90 " << Num(100.0 * LorenzShareAt(load.lorenz, 0.9), 2)
       << "%\n";
    if (sr.planned_queries > 0) {
      os << "    planner: " << sr.planned_queries << " planned, "
         << sr.reordered_queries << " reordered, " << sr.subs_skipped
         << " subs pruned\n";
    }
  }

  if (!drift.empty()) {
    os << "\ntheorem drift (observed vs src/analysis prediction):\n";
    for (const DriftRow& row : drift) {
      os << "    " << std::left << std::setw(8) << row.system << " "
         << std::setw(14) << row.metric << std::right << " observed "
         << std::setw(8) << Num(row.observed, 2) << "  predicted "
         << std::setw(8) << Num(row.predicted, 2) << "  drift "
         << std::setw(7) << Num(100.0 * row.drift, 2) << "% (tol "
         << Num(100.0 * row.tolerance, 0) << "%) "
         << (row.ok ? "ok" : "FAIL") << "\n";
    }
  }

  if (metrics != nullptr) {
    os << "\nmetrics: " << metrics->counters.size() << " counters, "
       << metrics->histograms.size() << " histograms\n";
    for (const auto& [name, h] : metrics->histograms) {
      if (h.count == 0) continue;
      os << "    " << std::left << std::setw(36) << name << std::right
         << " count " << std::setw(8) << h.count << "  mean " << std::setw(10)
         << Num(h.sum / static_cast<double>(h.count), 3) << "\n";
    }
  }

  os << "\nanomalies: " << report.anomalies.size() << "\n";
  for (const Anomaly& a : report.anomalies) {
    os << "    [" << AnomalyKindName(a.kind) << "] " << a.system << " query "
       << a.query_id << " sub " << a.sub_index << ": " << a.detail << "\n";
  }
}

void RenderReportJson(std::ostream& os, const TraceReport& report,
                      const std::vector<DriftRow>& drift) {
  os << "{\"traces\":" << report.traces
     << ",\"nodes\":" << report.inferred_nodes
     << ",\"dimension\":" << report.inferred_dimension << ",\"systems\":[";
  for (std::size_t i = 0; i < report.systems.size(); ++i) {
    const SystemReport& sr = report.systems[i];
    if (i) os << ",";
    os << "{\"system\":";
    WriteJsonString(os, sr.system);
    os << ",\"queries\":" << sr.queries << ",\"avg_attrs\":"
       << Num(sr.avg_attrs, 4) << ",\"lookups\":" << sr.lookups
       << ",\"failed_lookups\":" << sr.failed_lookups
       << ",\"dead_link_skips\":" << sr.dead_link_skips
       << ",\"hops_per_query\":";
    WriteSummaryJson(os, sr.hops_per_query);
    os << ",\"hops_per_lookup\":";
    WriteSummaryJson(os, sr.hops_per_lookup);
    os << ",\"visited_per_query\":";
    WriteSummaryJson(os, sr.visited_per_query);
    os << ",\"query_dur_us\":";
    WriteSummaryJson(os, sr.query_dur_us);
    os << ",\"lookup_dur_us\":";
    WriteSummaryJson(os, sr.lookup_dur_us);
    // Omitted for untimed trace sets: their reports stay byte-identical.
    if (sr.query_tail_ns.count > 0) {
      const LatencyTail& t = sr.query_tail_ns;
      os << ",\"query_tail_us\":{\"count\":" << t.count << ",\"p50\":"
         << Num(static_cast<double>(t.p50) / 1e3, 4) << ",\"p90\":"
         << Num(static_cast<double>(t.p90) / 1e3, 4) << ",\"p99\":"
         << Num(static_cast<double>(t.p99) / 1e3, 4) << ",\"p999\":"
         << Num(static_cast<double>(t.p999) / 1e3, 4) << "}";
    }
    os << ",\"load\":{\"nodes\":" << sr.load.nodes
       << ",\"probes\":" << sr.load.probes << ",\"gini\":"
       << Num(sr.load.gini, 4) << ",\"jain\":" << Num(sr.load.jain, 4)
       << ",\"max_share\":" << Num(sr.load.max_share, 4) << ",\"lorenz_l50\":"
       << Num(LorenzShareAt(sr.load.lorenz, 0.5), 4) << ",\"lorenz_l90\":"
       << Num(LorenzShareAt(sr.load.lorenz, 0.9), 4) << "}";
    // Omitted for plan-off trace sets: their reports stay byte-identical.
    if (sr.planned_queries > 0) {
      os << ",\"planner\":{\"queries\":" << sr.planned_queries
         << ",\"reordered\":" << sr.reordered_queries
         << ",\"subs_skipped\":" << sr.subs_skipped << "}";
    }
    os << "}";
  }
  os << "],\"drift\":[";
  for (std::size_t i = 0; i < drift.size(); ++i) {
    const DriftRow& row = drift[i];
    if (i) os << ",";
    os << "{\"system\":";
    WriteJsonString(os, row.system);
    os << ",\"metric\":";
    WriteJsonString(os, row.metric);
    os << ",\"observed\":" << Num(row.observed, 4) << ",\"predicted\":"
       << Num(row.predicted, 4) << ",\"drift\":" << Num(row.drift, 4)
       << ",\"tolerance\":" << Num(row.tolerance, 4)
       << ",\"ok\":" << (row.ok ? "true" : "false") << "}";
  }
  os << "],\"anomalies\":[";
  for (std::size_t i = 0; i < report.anomalies.size(); ++i) {
    const Anomaly& a = report.anomalies[i];
    if (i) os << ",";
    os << "{\"kind\":\"" << AnomalyKindName(a.kind) << "\",\"system\":";
    WriteJsonString(os, a.system);
    os << ",\"query\":" << a.query_id << ",\"sub\":" << a.sub_index
       << ",\"detail\":";
    WriteJsonString(os, a.detail);
    os << "}";
  }
  os << "],\"gate\":" << (GatePasses(report, drift) ? "\"pass\"" : "\"fail\"")
     << "}";
}

// ---- Timeline series -------------------------------------------------------

bool ParseTimelineLine(std::string_view line, TimelineWindow& out,
                       std::string* error) {
  out = TimelineWindow{};
  Cursor c{line.data(), line.data() + line.size(), {}};
  bool ok = c.Literal("{") && c.Key("window", /*first=*/true) &&
            c.U64(out.index) && c.Key("t0") && c.Number(out.t0) &&
            c.Key("t1") && c.Number(out.t1) && c.Key("series") &&
            c.Literal("{");
  if (ok) {
    bool first = true;
    while (ok && !c.Peek('}')) {
      if (!first && !c.Literal(",")) { ok = false; break; }
      first = false;
      std::string name;
      double value = 0.0;
      ok = c.String(name) && c.Literal(":") && c.Number(value);
      if (ok) out.series[name] = value;
    }
    ok = ok && c.Literal("}");
  }
  if (ok && c.OptionalKeyStart("load")) {
    std::uint64_t nodes = 0;
    ok = c.Literal("{") && c.Key("nodes", /*first=*/true) && c.U64(nodes) &&
         c.Key("total") && c.Number(out.load_total) && c.Key("max") &&
         c.Number(out.load_max) && c.Literal("}");
    out.has_load = ok;
    out.load_nodes = static_cast<std::size_t>(nodes);
  }
  ok = ok && c.Literal("}");
  if (ok && c.p != c.end) ok = c.Fail("trailing characters");
  if (!ok && error != nullptr) {
    *error = (c.err.empty() ? "malformed timeline line" : c.err) +
             " (offset " + std::to_string(c.p - line.data()) + ")";
  }
  return ok;
}

std::vector<TimelineWindow> ParseTimelineStream(std::istream& is) {
  std::vector<TimelineWindow> windows;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::string err;
    if (!ParseTimelineLine(line, windows.emplace_back(), &err)) {
      throw ConfigError("timeline line " + std::to_string(lineno) + ": " +
                        err);
    }
  }
  return windows;
}

void RenderTimelineReport(std::ostream& os,
                          const std::vector<TimelineWindow>& windows) {
  os << "== timeline ==\n";
  if (windows.empty()) {
    os << "0 windows\n";
    return;
  }
  const double width = windows.front().t1 - windows.front().t0;
  os << windows.size() << " windows x " << Num(width, 2) << " s, t "
     << Num(windows.front().t0, 2) << " .. " << Num(windows.back().t1, 2)
     << "\n";

  // Per-series totals and peak windows (std::map: name order).
  struct SeriesAgg {
    double total = 0.0;
    double peak = 0.0;
    std::uint64_t peak_window = 0;
  };
  std::map<std::string, SeriesAgg> agg;
  for (const TimelineWindow& w : windows) {
    for (const auto& [name, value] : w.series) {
      SeriesAgg& s = agg[name];
      s.total += value;
      if (value > s.peak) {
        s.peak = value;
        s.peak_window = w.index;
      }
    }
  }
  for (const auto& [name, s] : agg) {
    os << "    " << std::left << std::setw(32) << name << std::right
       << " total " << std::setw(12) << Num(s.total, 2) << "  peak "
       << std::setw(10) << Num(s.peak, 2) << " @ window " << s.peak_window
       << "\n";
  }

  bool any_load = false;
  std::size_t nodes_min = 0, nodes_max = 0;
  double peak_total = 0.0, peak_max = 0.0;
  std::uint64_t peak_total_w = 0, peak_max_w = 0;
  for (const TimelineWindow& w : windows) {
    if (!w.has_load) continue;
    if (!any_load) {
      nodes_min = nodes_max = w.load_nodes;
      any_load = true;
    }
    nodes_min = std::min(nodes_min, w.load_nodes);
    nodes_max = std::max(nodes_max, w.load_nodes);
    if (w.load_total > peak_total) {
      peak_total = w.load_total;
      peak_total_w = w.index;
    }
    if (w.load_max > peak_max) {
      peak_max = w.load_max;
      peak_max_w = w.index;
    }
  }
  if (any_load) {
    os << "    load: nodes " << nodes_min << ".." << nodes_max
       << ", peak window total " << Num(peak_total, 2) << " @ window "
       << peak_total_w << ", peak node " << Num(peak_max, 2) << " @ window "
       << peak_max_w << "\n";
  }
}

// ---- Exporters -------------------------------------------------------------

void WriteChromeTrace(std::ostream& os, std::vector<QueryTrace> traces) {
  std::sort(traces.begin(), traces.end(),
            [](const QueryTrace& a, const QueryTrace& b) {
              if (a.query_id != b.query_id) return a.query_id < b.query_id;
              return a.system < b.system;
            });
  // One synthetic track (tid) per system, name order; queries are laid out
  // sequentially on each track so span lengths — not wall-clock arrival —
  // carry the timing information.
  std::map<std::string, std::uint64_t> tids;
  for (const QueryTrace& t : traces) tids.emplace(t.system, 0);
  std::uint64_t next_tid = 0;
  for (auto& [name, tid] : tids) tid = next_tid++;

  os << "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](auto&& write_event) {
    if (!first) os << ",";
    first = false;
    write_event();
  };
  emit([&] {
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
          "\"args\":{\"name\":\"lorm traces\"}}";
  });
  for (const auto& [name, tid] : tids) {
    emit([&] {
      os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
         << ",\"args\":{\"name\":";
      WriteJsonString(os, name);
      os << "}}";
    });
  }

  std::map<std::string, std::uint64_t> cursor_us;  // per-track clock
  for (const QueryTrace& t : traces) {
    const std::uint64_t tid = tids[t.system];
    std::uint64_t& cursor = cursor_us[t.system];
    // Child spans: one per lookup, at least 1 us each so zero-duration
    // (untimed) traces still render visible spans. A trace keeps durations,
    // not start times, so they are laid end to end; a query whose lookups
    // overlapped stretches to cover them.
    std::uint64_t children_us = 0;
    std::uint64_t hops = 0;
    std::size_t lookups = 0, probes = 0;
    for (const SubQueryTrace& sub : t.subs) {
      probes += sub.probes.size();
      for (const LookupTrace& l : sub.lookups) {
        ++lookups;
        hops += l.hops;
        children_us += std::max<std::uint64_t>(1, l.duration_ns / 1000);
      }
    }
    const std::uint64_t query_us = std::max<std::uint64_t>(
        {1, t.duration_ns / 1000, children_us});
    emit([&] {
      os << "{\"name\":\"query " << t.query_id
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << cursor
         << ",\"dur\":" << query_us << ",\"args\":{\"attrs\":" << t.subs.size()
         << ",\"lookups\":" << lookups << ",\"probes\":" << probes
         << ",\"hops\":" << hops << "}}";
    });
    std::uint64_t child_ts = cursor;
    for (const SubQueryTrace& sub : t.subs) {
      for (const LookupTrace& l : sub.lookups) {
        const std::uint64_t dur =
            std::max<std::uint64_t>(1, l.duration_ns / 1000);
        emit([&] {
          os << "{\"name\":\"lookup attr " << sub.attr
             << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
             << ",\"ts\":" << child_ts << ",\"dur\":" << dur
             << ",\"args\":{\"hops\":" << l.hops << ",\"ok\":"
             << (l.ok ? "true" : "false")
             << ",\"dead_skips\":" << l.dead_links_skipped << "}}";
        });
        child_ts += dur;
      }
    }
    cursor += query_us + 1;  // 1 us gap between consecutive query spans
  }
  os << "]}";
}

std::size_t DumpFlightOnAnomaly(const TraceReport& report, std::ostream& os) {
  if (report.anomalies.empty()) return 0;
  const std::vector<FlightEvent> events = FlightRecorder::Global().Snapshot();
  WriteFlightJsonLines(os, events);
  return events.size();
}

}  // namespace lorm::obs
