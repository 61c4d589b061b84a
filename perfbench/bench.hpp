// Discovery benchmark: shared types.
//
// A workload is a seeded set-up (Setup + advertised tuples + a warm pass)
// plus a fixed list of operations. The runner builds every system, applies
// the operations to each of them in interleaved blocks, checks every answer
// against an exact oracle, and keeps each operation's minimum wall time over
// repeated identical replays. See README.md for the metric definitions.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "discovery/discovery.hpp"
#include "harness/setup.hpp"
#include "resource/query.hpp"
#include "resource/workload.hpp"

namespace perfbench {

using lorm::AttrId;
using lorm::HopCount;
using lorm::NodeAddr;

enum class OpKind : std::uint8_t { kQuery, kJoin, kLeave, kMaintain, kAdvertise };

struct Op {
  OpKind kind = OpKind::kQuery;
  lorm::resource::MultiQuery query;                 ///< kQuery
  NodeAddr node = lorm::kNoNode;                    ///< kJoin, kLeave
  std::vector<lorm::resource::ResourceInfo> infos;  ///< kJoin adverts, kAdvertise
};

struct WorkloadSpec {
  lorm::harness::Setup setup;
  /// Owns the attribute registry every service of the run shares.
  std::unique_ptr<lorm::resource::Workload> workload;
  std::vector<lorm::resource::ResourceInfo> infos;   ///< AdvertiseAll at set-up
  std::vector<lorm::resource::MultiQuery> warm;      ///< answered once at set-up
  std::vector<Op> ops;
  /// The first `read_prefix` ops are read-only and are replayed `passes`
  /// times per round on the warmed systems; the rest run once per round.
  std::size_t read_prefix = 0;
  std::size_t passes = 1;
  /// Each round rebuilds the identical seeded state from scratch.
  std::size_t rounds = 1;
};

/// Builds the named workload from `seed`. `seconds` scales the number of
/// rounds (never the op count). Throws lorm::ConfigError on an unknown name.
WorkloadSpec MakeWorkload(const std::string& name, std::uint64_t seed,
                          unsigned seconds);

/// Exact answers from the generated tuples: every provider whose
/// advertisements match every sub-query.
class Oracle {
 public:
  explicit Oracle(const lorm::resource::AttributeRegistry& registry);

  void Add(const lorm::resource::ResourceInfo& info);
  /// A graceful leave: the provider's tuples go.
  void Leave(NodeAddr provider);
  std::vector<NodeAddr> Answer(const lorm::resource::MultiQuery& q) const;

 private:
  struct Tuple {
    double ordinal;
    NodeAddr provider;
  };
  const lorm::resource::AttributeRegistry* registry_;
  std::vector<std::vector<Tuple>> by_attr_;  ///< sorted by ordinal
};

/// Heap allocations made by the calling thread so far (the benchmark
/// replaces operator new).
std::uint64_t AllocCount();

/// Named values of one run, in the order they are printed.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOutput {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t determinism_violations = 0;
  std::vector<std::string> problems;  ///< first few failures, for the log
  std::vector<std::string> op_counts;  ///< one line per system
  std::vector<Metric> metrics;
  std::size_t query_samples = 0;  ///< queries per system behind each percentile
  std::uint64_t digest = 0;  ///< hash of every exact count and answer
};

struct RunOptions {
  bool trace = false;
  /// Systems to drive; the five built-ins unless a self-test overrides.
  std::vector<lorm::harness::SystemKind> systems;
  /// Where --trace 1 writes its spans (empty: keep them in memory only).
  std::string span_file;
};

RunOutput RunWorkload(const WorkloadSpec& spec, const RunOptions& opt);

/// Runs the stub systems through the runner and returns a description of
/// every check that failed to trip (empty when the checks work).
std::vector<std::string> SelfTest();

}  // namespace perfbench
