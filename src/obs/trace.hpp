// Observability: per-query trace recorder.
//
// A trace captures what a multi-attribute query actually did: for each
// sub-query, the hop-by-hop lookup path(s) through the overlay (with
// dead-link skips), and every directory probe (node, match count, directory
// size) made at the root or along a successor walk.
//
// Recording is scoped and thread-local:
//
//   obs::QueryTraceScope scope(name(), /*attrs=*/q.sub_queries.size());
//   ... run the query; instrumented code appends to the active trace ...
//   // scope destructor hands the finished QueryTrace to the sink
//
// The off-state gate is the thread-local active-trace pointer: when no
// scope is live on this thread (or no sink is installed), every entry
// point is a null check and a return — no locks, no allocation, nothing
// that could disturb `test_lookup_alloc`'s zero-allocation warm path.
//
// Sinks receive completed traces and must be thread-safe; the parallel
// replay engine finishes traces on worker threads.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace lorm::obs {

/// One DHT routing operation inside a sub-query.
struct LookupTrace {
  std::vector<NodeAddr> path;  ///< origin first, owner last (empty on failure)
  HopCount hops = 0;
  bool ok = false;
  std::uint64_t dead_links_skipped = 0;
  /// Monotonic wall time from the walk's start (LookupBegin) to the step
  /// that completed it. The query executor steps a classic cache-off
  /// query's root lookups together, so one query's lookups may overlap in
  /// time, and their durations may add up to more than the query's.
  std::uint64_t duration_ns = 0;
  /// Hops taken through route-cache shortcuts; always 0 with `--cache` off,
  /// and the wire format omits the key then, so cache-off trace files are
  /// byte-identical to pre-cache builds.
  std::uint64_t cache_hits = 0;
};

/// One directory check (sub-query root or range-walk probe).
struct ProbeTrace {
  NodeAddr node = kNoNode;
  std::uint64_t hits = 0;      ///< matching entries found at this node
  std::uint64_t dir_size = 0;  ///< entries stored at this node when probed
  /// Of `hits`, how many were served from replica copies (entry labels
  /// != 0). Zero with replication off, and the wire format omits the key
  /// then, so r=1 trace files are byte-identical to pre-replication builds.
  std::uint64_t replica_hits = 0;
};

struct SubQueryTrace {
  AttrId attr = 0;
  std::vector<LookupTrace> lookups;  ///< 1 per sub-query (MAAN: 2)
  std::vector<ProbeTrace> probes;    ///< roots + walk probes, visit order
  /// Running candidate-set size after this sub-query's incremental
  /// intersection (`--plan` only); -1 = planner off, and the wire format
  /// omits the key then, so plan-off trace files are byte-identical to
  /// pre-planner builds.
  std::int64_t plan_candidates = -1;
};

struct QueryTrace {
  std::string system;        ///< service name: LORM / Mercury / SWORD / MAAN
  std::uint64_t query_id = 0;  ///< process-wide sequence number
  std::uint64_t duration_ns = 0;  ///< monotonic wall time of the whole query
  /// Sub-query execution order chosen by the planner (`--plan` only; empty
  /// = planner off, key omitted on the wire). subs stays in query order.
  std::vector<std::uint32_t> plan_order;
  std::vector<SubQueryTrace> subs;
};

/// Receives completed traces. Implementations must be thread-safe.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void Consume(QueryTrace&& trace) = 0;
};

/// Writes one JSON object per trace, one per line (JSON Lines). The exact
/// wire format is the contract of the offline analyzer (`obs/analyze.hpp`):
/// ParseTraceLine round-trips every line WriteJson emits, byte for byte.
class JsonLinesTraceSink : public TraceSink {
 public:
  explicit JsonLinesTraceSink(std::ostream& os) : os_(os) {}
  void Consume(QueryTrace&& trace) override;

  /// Serializes one trace as a single-line JSON object (no newline).
  static void WriteJson(std::ostream& os, const QueryTrace& trace);

 private:
  std::mutex mu_;
  std::ostream& os_;
};

/// Writes `text` as a JSON string literal (quotes included), escaping
/// quote, backslash and control characters. Shared by the trace sink and
/// its round-trip tests.
void WriteJsonString(std::ostream& os, std::string_view text);

/// Collects traces in memory — for tests that cross-check traces against
/// the query's reported QueryStats, and for the benches' in-process
/// `--analyze` reports.
class MemoryTraceSink : public TraceSink {
 public:
  void Consume(QueryTrace&& trace) override;
  /// Snapshot of everything consumed so far.
  std::vector<QueryTrace> Take();

 private:
  std::mutex mu_;
  std::vector<QueryTrace> traces_;
};

/// Duplicates every trace to two sinks (e.g. a JSONL file and an in-memory
/// collector for post-hoc analysis). Thread-safe iff both targets are.
class TeeTraceSink : public TraceSink {
 public:
  TeeTraceSink(TraceSink& first, TraceSink& second)
      : first_(first), second_(second) {}
  void Consume(QueryTrace&& trace) override;

 private:
  TraceSink& first_;
  TraceSink& second_;
};

/// Installs the process-wide sink new QueryTraceScopes hand traces to
/// (nullptr disables tracing). The sink must outlive every scope started
/// while it is installed. Returns the previous sink.
TraceSink* SetGlobalTraceSink(TraceSink* sink);
TraceSink* GetGlobalTraceSink();

namespace detail {
extern thread_local QueryTrace* t_active;
}

/// True when a trace is being recorded on this thread.
inline bool TracingActive() { return detail::t_active != nullptr; }

/// Monotonic clock read in nanoseconds, for trace timing. Callers on hot
/// paths must gate this behind TracingActive(): with tracing off the
/// timestamp is never taken, so the off-state stays one TLS null check.
std::uint64_t MonotonicNowNs();

/// Reserves `count` consecutive query ids from the process-wide sequence
/// and returns the first. The parallel replay engine reserves one block per
/// experiment and gives trial t the id base+t, so the id<->query mapping —
/// and therefore the analyzer's sort-by-query-id order and its rendered
/// reports — is identical for any --jobs value.
std::uint64_t ReserveQueryIds(std::uint64_t count);

/// RAII: starts recording a query trace on this thread (inert when no sink
/// is installed) and hands the finished trace to the sink on destruction.
/// The two-argument form pins the trace's query id (see ReserveQueryIds);
/// the one-argument form draws the next id from the process-wide sequence.
class QueryTraceScope {
 public:
  explicit QueryTraceScope(std::string_view system);
  QueryTraceScope(std::string_view system, std::uint64_t query_id);
  ~QueryTraceScope();

  QueryTraceScope(const QueryTraceScope&) = delete;
  QueryTraceScope& operator=(const QueryTraceScope&) = delete;

 private:
  void Begin(std::string_view system, std::uint64_t query_id);

  TraceSink* sink_ = nullptr;
  QueryTrace trace_;
  QueryTrace* prev_ = nullptr;
  std::uint64_t start_ns_ = 0;
};

/// RAII: opens the next sub-query record inside the active trace. No-op
/// when no trace is active.
class SubQueryScope {
 public:
  explicit SubQueryScope(AttrId attr);
  ~SubQueryScope() = default;

  SubQueryScope(const SubQueryScope&) = delete;
  SubQueryScope& operator=(const SubQueryScope&) = delete;
};

// ---- Instrumentation entry points ----------------------------------------
// All are a thread-local null check when no trace is active.

/// Records one overlay lookup (called by chord/cycloid LookupInto).
/// `duration_ns` is the monotonic wall time of the routing walk; callers
/// that did not time the walk (tracing was off when it started) pass 0.
void OnLookup(const std::vector<NodeAddr>& path, HopCount hops, bool ok,
              std::uint64_t dead_links_skipped,
              std::uint64_t duration_ns = 0,
              std::uint64_t cache_hits = 0);

/// Records one directory probe (called by the services per visited node).
/// `replica_hits` counts the matches served from replica copies (0 with
/// replication off).
void OnDirectoryProbe(NodeAddr node, std::uint64_t hits, std::uint64_t dir_size,
                      std::uint64_t replica_hits = 0);

/// Records the planner's chosen sub-query execution order (`--plan` only;
/// never called on the classic path, keeping plan-off traces byte-identical).
void OnPlanOrder(const std::uint32_t* order, std::size_t count);

/// Records the running candidate-set size after the current sub-query's
/// incremental intersection (`--plan` only).
void OnSubQueryCandidates(std::uint64_t candidates);

}  // namespace lorm::obs
