// Experiment setup shared by the figure benches, examples and tests.
//
// Encapsulates the paper's §V configuration (n = 2048 nodes, Cycloid d = 8,
// Chord 11 bits, m = 200 attributes, k = 500 pieces per attribute, Bounded
// Pareto values) and builds any of the five systems against a common
// workload. Systems resolve through a small registry (RegisterSystem), so
// tests can add experimental systems without touching the harness.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "discovery/discovery.hpp"
#include "resource/workload.hpp"

namespace lorm::harness {

/// The five standard systems. The enum is open-ended: the registry below
/// accepts additional kinds (any value outside the built-in range), so
/// experiment code iterating RegisteredSystems() picks up extensions
/// without enum edits.
enum class SystemKind { kLorm, kMercury, kSword, kMaan, kD1ht };

const char* SystemName(SystemKind kind);
/// The five standard systems in canonical figure order (the four paper
/// systems first, so four-system table prefixes stay byte-identical, then
/// the single-hop bracket). Test-registered extras are NOT included — the
/// golden tables iterate this list.
std::vector<SystemKind> AllSystems();

struct Setup;

/// Builds one service of `setup.nodes` nodes for a registered system.
using SystemFactory =
    std::function<std::unique_ptr<discovery::DiscoveryService>(
        const Setup&, const resource::AttributeRegistry&)>;

/// Registers (or replaces) a system under `kind`. SystemName/MakeService
/// and RegisteredSystems() resolve through this table; the built-ins are
/// pre-registered. Not thread-safe: register before spawning replay
/// workers.
void RegisterSystem(SystemKind kind, std::string name, SystemFactory factory);
bool SystemRegistered(SystemKind kind);
/// Every registered kind in registration order: the built-ins of
/// AllSystems() first, then anything tests/extensions added.
std::vector<SystemKind> RegisteredSystems();

struct Setup {
  std::size_t nodes = 2048;        ///< n
  unsigned dimension = 8;          ///< Cycloid d (n = d * 2^d when full)
  unsigned chord_bits = 11;        ///< Chord ID bits (2^bits >= n)
  std::size_t attributes = 200;    ///< m
  std::size_t infos_per_attribute = 500;  ///< k
  /// Bounded Pareto over one octave: visibly skewed but close enough to the
  /// theorems' uniform assumption that the paper's "slightly higher than
  /// analysis" percentile behaviour reproduces (DESIGN.md §5.2; the
  /// lph-ablation bench explores harsher skews).
  double pareto_shape = 1.0;
  double value_min = 500.0;
  double value_max = 1000.0;
  std::uint64_t seed = 0x5C1E17CEull;
  /// Directory replication factor (1 = paper behaviour, no replicas).
  std::size_t replicas = 1;
  /// Enable the adaptive caching layer (`--cache`): per-node route caches in
  /// the overlay plus the per-service (attribute, range) result cache. Off =
  /// the paper's protocols, byte-identical to the committed goldens.
  bool cache = false;
  /// Enable the selectivity-driven query planner (`--plan`): sub-queries
  /// execute most-selective-first with incremental intersection and early
  /// exit. Off = the classic execution order, byte-identical to the
  /// committed goldens.
  bool plan = false;

  /// The paper's exact §V setup.
  static Setup Paper() { return Setup{}; }

  /// The proportionally reduced configuration every fig* bench uses for
  /// --quick smoke runs. Shared with the golden-output regression test so
  /// the committed golden hashes pin exactly what the benches emit.
  static Setup Quick();

  /// A smaller configuration with the same proportions, for unit and
  /// integration tests (fast to build) and for the churn experiments where
  /// Mercury would otherwise dominate runtime.
  static Setup Small();

  /// Derives a consistent setup for a different network size: picks the
  /// smallest Cycloid dimension and Chord bit-count that fit `n`.
  Setup WithNodes(std::size_t n) const;

  resource::WorkloadConfig MakeWorkloadConfig() const;
};

/// Builds one discovery system of `setup.nodes` nodes (addresses 0..n-1).
std::unique_ptr<discovery::DiscoveryService> MakeService(
    SystemKind kind, const Setup& setup,
    const resource::AttributeRegistry& registry);

/// Advertises every tuple through the service (from its provider node), as
/// one DiscoveryService::AdvertiseAll block. Returns the total routing hops
/// spent.
HopCount AdvertiseAll(discovery::DiscoveryService& service,
                      const std::vector<resource::ResourceInfo>& infos);

/// The tuples a populated grid advertises: the workload's m*k tuples, each
/// provided by one of the members 0..n-1, drawn from a stream fixed by
/// `setup.seed`.
std::vector<resource::ResourceInfo> GridInfos(
    const Setup& setup, const resource::Workload& workload);

/// Builds a system and advertises GridInfos(setup, workload) through it.
std::unique_ptr<discovery::DiscoveryService> BuildPopulated(
    SystemKind kind, const Setup& setup, const resource::Workload& workload);

}  // namespace lorm::harness
