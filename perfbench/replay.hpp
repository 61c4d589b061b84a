// Layer-by-layer replay of one Query() from outside the services.
//
// The replay calls each layer's public functions with the arguments the
// service derives: the overlay's LookupInto with the service's own keys
// (route), the ring/cluster walk plus directories().Find()->ForEachMatch
// (walk_scan), and DedupMatches/JoinProviders or the planner's
// ProvidersOf/IntersectSorted (join). It must reproduce the real query's
// lookups, hops, visited nodes and matches exactly; the runner fails the run
// otherwise.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "cache/result_cache.hpp"
#include "discovery/discovery.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NsSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
}

enum class SpanKind : std::uint8_t { kQuery, kReplay, kRoute, kWalkScan, kJoin };

/// One traced interval. Spans of one query share `query_id`; route,
/// walk_scan and join spans are children of that query's replay span.
struct Span {
  std::uint32_t query_id = 0;
  std::uint8_t system = 0;
  SpanKind kind = SpanKind::kQuery;
  std::uint16_t sub = 0;  ///< sub-query index for route/walk_scan/join
  std::int64_t start_ns = 0;  ///< since the run's time origin
  std::int64_t dur_ns = 0;
};

struct LayerSample {
  std::int64_t route_ns = 0;
  std::int64_t walk_scan_ns = 0;
  std::int64_t join_ns = 0;
  std::size_t lookups = 0;
  lorm::HopCount hops = 0;
  std::size_t visited = 0;
  std::size_t raw_matches = 0;  ///< directory matches before dedup
  bool failed = false;
  std::vector<std::vector<lorm::resource::ResourceInfo>> per_sub;
  std::vector<lorm::NodeAddr> providers;
};

/// Where a replay records its child spans (null: record none).
struct SpanSink {
  std::vector<Span>* spans = nullptr;
  Clock::time_point origin;
  std::uint32_t query_id = 0;
  std::uint8_t system = 0;

  void Add(SpanKind kind, std::size_t sub, Clock::time_point t0,
           Clock::time_point t1) const {
    if (spans == nullptr) return;
    spans->push_back(Span{query_id, system, kind,
                          static_cast<std::uint16_t>(sub), NsSince(origin, t0),
                          NsSince(t0, t1)});
  }
};

/// Replays `q` against `svc`, one of the five built-in services (throws
/// lorm::ConfigError otherwise). `plan` selects the planned execution path;
/// `cache` (planned path only) stands in for the service's private result
/// cache and must have seen the same stores and invalidations.
void ReplayQuery(const lorm::discovery::DiscoveryService& svc,
                 const lorm::resource::AttributeRegistry& registry,
                 const lorm::resource::MultiQuery& q, bool plan,
                 lorm::cache::ResultCache* cache,
                 lorm::discovery::QueryScratch& scratch, const SpanSink& sink,
                 LayerSample& out);

}  // namespace perfbench
