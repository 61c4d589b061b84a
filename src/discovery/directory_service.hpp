// What the five discovery services share besides their query executor: the
// per-node directories and the state around them.
//
// Every service keeps its tuples in a DirectoryStore keyed by its overlay's
// key type, feeds the planner's histograms from it, serves repeated
// sub-queries from a result cache, counts the query visits each node absorbs
// and meters replication handoff. This base holds that state once, with the
// operations that only read or expire it, the directory probe every
// resolver runs, the membership flight record, and the query executor
// (ExecuteQuery, defined in query_executor.hpp). A service adds its overlay,
// its placement (Advertise, the membership handlers) and its ResolveSub.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cache/result_cache.hpp"
#include "discovery/directory.hpp"
#include "discovery/discovery.hpp"
#include "discovery/replication.hpp"
#include "discovery/selectivity.hpp"
#include "discovery/visit_counter.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "resource/attribute.hpp"

namespace lorm::discovery {

/// Entry filter that keeps every entry (probes and replication handoffs of
/// systems that store one record kind).
inline constexpr auto kAllEntries = [](const auto&) { return true; };

template <typename Key>
class DirectoryService : public DiscoveryService {
 public:
  std::string name() const final { return name_; }

  void SetEpoch(std::uint64_t epoch) final { epoch_ = epoch; }
  std::uint64_t CurrentEpoch() const final { return epoch_; }
  std::size_t ExpireEntriesBefore(std::uint64_t cutoff) final {
    const std::size_t expired = store_.ExpireBefore(cutoff);
    if (expired != 0) result_cache_.InvalidateAll();
    return expired;
  }

  std::vector<double> DirectorySizes() const final {
    std::vector<double> out;
    for (const NodeAddr addr : Nodes()) {
      out.push_back(static_cast<double>(store_.SizeAt(addr)));
    }
    return out;
  }
  std::vector<double> QueryLoadCounts() const final {
    std::vector<double> out;
    for (const NodeAddr addr : Nodes()) {
      out.push_back(static_cast<double>(visit_counts_.CountOf(addr)));
    }
    return out;
  }
  void ResetQueryLoad() final { visit_counts_.Clear(); }
  std::size_t TotalInfoPieces() const final { return store_.TotalEntries(); }
  ReplicationStats ReplicationWork() const final { return repl_.stats(); }

  /// Eagerly removes every advertisement of `provider` (optional; queries
  /// already filter dead providers — see DESIGN.md on soft state).
  std::size_t WithdrawProvider(NodeAddr provider) {
    result_cache_.InvalidateAll();
    return store_.EraseProviderEverywhere(provider);
  }

  const SelectivityEstimator& selectivity() const { return selectivity_; }
  const DirectoryStore<Key>& directories() const { return store_; }

 protected:
  using Store = DirectoryStore<Key>;
  using Matches = std::vector<resource::ResourceInfo>;

  /// `result_cache` enables the (attribute, range) result cache (`--cache`);
  /// `plan` feeds the planner's histograms from the directories and runs
  /// planned execution (`--plan`).
  DirectoryService(std::string system,
                   const resource::AttributeRegistry& registry,
                   bool result_cache, bool plan)
      : name_(system), registry_(registry), repl_(std::move(system)),
        plan_(plan) {
    if (result_cache) result_cache_.Enable();
    if (plan) {
      selectivity_.Configure(registry_);
      store_.SetEstimator(&selectivity_);
    }
  }

  /// Runs `q` through `resolve_sub`, this service's routing, walking and
  /// probing of one sub-query (query_executor.hpp, which defines it).
  template <typename ResolveSub>
  QueryResult ExecuteQuery(const resource::MultiQuery& q,
                           QueryScratch& scratch,
                           ResolveSub&& resolve_sub) const;

  /// Routes one lookup of `key` from `from` on `overlay` and bills it to
  /// `stats`; a failed route marks the query failed. Returns res.ok.
  template <typename Overlay, typename OverlayKey, typename Result>
  static bool Route(const Overlay& overlay, OverlayKey key, NodeAddr from,
                    Result& res, QueryStats& stats) {
    overlay.LookupInto(key, from, res);
    stats.lookups += 1;
    stats.dht_hops += res.hops;
    if (!res.ok) stats.failed = true;
    return res.ok;
  }

  /// One directory check at `node` for (attr, [lo, hi]): counts the visit,
  /// appends the matching entries `keep` accepts, and bills and traces the
  /// probe. The caller counts stats.visited_nodes (walks do it per step).
  template <typename Keep>
  void Probe(NodeAddr node, AttrId attr, double lo, double hi, Keep&& keep,
             Matches& matches, QueryStats& stats) const {
    visit_counts_.Record(node);
    const std::size_t before = matches.size();
    std::uint64_t replica_hits = 0;
    const auto* dir = store_.Find(node);
    if (dir != nullptr) {
      dir->ForEachMatch(attr, lo, hi, [&](const typename Store::Entry& e) {
        if (!keep(e)) return;
        matches.push_back(e.info);
        if (e.replica != 0) ++replica_hits;
      });
    }
    stats.replica_hits += replica_hits;
    obs::OnDirectoryProbe(node, matches.size() - before,
                          dir != nullptr ? dir->size() : 0, replica_hits);
  }

  /// Flight-records a membership change at the current network size (after
  /// a join, before a leave or crash).
  void RecordMembership(obs::FlightEventKind kind, NodeAddr addr) const {
    if (obs::FlightEnabled()) {
      obs::RecordFlight(kind, name_, addr, NetworkSize());
    }
  }

  const std::string name_;
  const resource::AttributeRegistry& registry_;
  /// Declared before store_ so the directories (whose destructor un-counts
  /// entries from the estimator) die first.
  SelectivityEstimator selectivity_;
  Store store_;
  std::uint64_t epoch_ = 0;
  /// Handoff work done by the replication protocol (replicas > 1 only).
  ReplicationRecorder repl_;
  /// Visits absorbed per node (roots + walk probes); mutable because Query
  /// is const, internally synchronized because the parallel experiment
  /// engine replays queries from many threads.
  mutable VisitCounter visit_counts_;
  /// (attr, range) -> matches (`--cache`); mutable because Query is const.
  /// Invalidated on every event that can change ground truth.
  mutable cache::ResultCache result_cache_;

 private:
  bool plan_;
};

}  // namespace lorm::discovery
