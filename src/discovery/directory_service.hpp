// What the five discovery services share besides their query executor: the
// per-node directories, the state around them, the placement path and the
// membership path.
//
// Every service keeps its tuples in a DirectoryStore keyed by its overlay's
// key type, feeds the planner's histograms from it, serves repeated
// sub-queries from a result cache, counts the query visits each node absorbs
// and meters replication handoff. This base holds that state once, with the
// operations that only read or expire it, the directory probe every
// resolver runs and the query executor (ExecuteQuery, defined in
// query_executor.hpp).
//
// It also places every tuple. Advertise is a block of one, and AdvertiseAll
// names the placements of up to kPlacementWindow tuples, routes them
// together through RouteLanes (common/ring_route.hpp), kPlacementLanes wide,
// and stores each tuple's copies as its routes retire, in submission order.
// Routes only read the rings, so directory contents and order, hop totals,
// counters and traces are those of one Advertise per tuple; the one ring
// state a lookup writes is the route cache, so with any ring's route cache on
// the placements route one lane wide.
//
// And it runs every join, leave and crash. A service registers each of its
// rings with the observer that hands off that ring's entries (AddRing: one
// ring for LORM, SWORD, MAAN and D1HT, one per attribute for Mercury); the
// base checks the first ring's capacity, drives every ring, records the
// flight event and drops a departed node's directory once every ring's
// handoff ran. The Chord-keyed rings share one observer (RingHandoff,
// replication.hpp); LORM hands off across its Cycloid clusters itself.
//
// What a service adds is its ring(s) and four members: its placements
// (Placements, the routes that store one tuple), its replica chain
// (NextReplica), what a failed placement route means (CheckRouted), and for
// queries the root lookups of a sub-query (RootLookups) and its walk
// (ResolveSub).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cache/result_cache.hpp"
#include "common/error.hpp"
#include "common/ring_route.hpp"
#include "discovery/directory.hpp"
#include "discovery/discovery.hpp"
#include "discovery/query_obs.hpp"
#include "discovery/replication.hpp"
#include "discovery/selectivity.hpp"
#include "discovery/visit_counter.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resource/attribute.hpp"

namespace lorm::discovery {

/// The knobs every service's Config starts from; harness::Setup sets them
/// alike for all five systems.
struct ServiceOptions {
  /// Copies of each directory entry: 1 = primary only; r > 1 places r - 1
  /// more on the owner's successors (ring successors, or LORM's cyclic
  /// successors inside the owner's cluster).
  std::size_t replicas = 1;
  /// Serve repeated (attribute, range) sub-queries from a result cache,
  /// invalidated on every membership/advertise/expiry event (`--cache`).
  bool result_cache = false;
  /// Selectivity-driven query planning (`--plan`): execute sub-queries
  /// most-selective-first, intersect incrementally and stop once the
  /// candidate set empties. Off = the classic path, byte-identical to
  /// pre-planner builds.
  bool plan = false;
};

/// `Ring` is the overlay every lookup of the service routes on (its key
/// type keys the directories): chord::ChordRing, cycloid::CycloidNetwork or
/// singlehop::SingleHopRing.
template <typename Ring>
class DirectoryService : public DiscoveryService {
 public:
  using Key = typename Ring::Id;

  DirectoryService(const DirectoryService&) = delete;
  DirectoryService& operator=(const DirectoryService&) = delete;

  std::string name() const final { return name_; }

  HopCount Advertise(const resource::ResourceInfo& info) final {
    return AdvertiseAll({&info, 1});
  }
  HopCount AdvertiseAll(std::span<const resource::ResourceInfo> infos) final;

  /// Rejected (false) when the first ring's identifier space is full; then
  /// every ring adds the node and hands off its arcs.
  bool JoinNode(NodeAddr addr) final {
    const Ring& first = *rings_.front();
    if (first.size() >= Capacity(first)) return false;
    for (Ring* ring : rings_) ring->AddNode(addr);
    RecordMembership(obs::FlightEventKind::kJoin, addr);
    return true;
  }
  void LeaveNode(NodeAddr addr) final {
    RecordMembership(obs::FlightEventKind::kLeave, addr);
    for (Ring* ring : rings_) ring->RemoveNode(addr);
    store_.Drop(addr);  // every ring's handoff already moved what survives
  }
  void FailNode(NodeAddr addr) final {
    RecordMembership(obs::FlightEventKind::kCrash, addr);
    for (Ring* ring : rings_) ring->FailNode(addr);
    store_.Drop(addr);  // the crashed node's copies do not survive
  }
  bool HasNode(NodeAddr addr) const final {
    return rings_.front()->Contains(addr);
  }
  std::size_t NetworkSize() const final { return rings_.front()->size(); }
  std::vector<NodeAddr> Nodes() const final {
    return rings_.front()->Members();
  }
  void Maintain() final {
    for (Ring* ring : rings_) ring->StabilizeAll();
  }
  std::uint64_t MaintenanceMessages() const final {
    std::uint64_t total = 0;
    for (const Ring* ring : rings_) total += ring->maintenance().Total();
    return total;
  }
  /// A node's out-links summed over every ring (Mercury: all m hubs).
  std::vector<double> OutlinkCounts() const final {
    std::vector<double> out;
    for (const NodeAddr addr : Nodes()) {
      std::size_t links = 0;
      for (const Ring* ring : rings_) links += ring->Outlinks(addr);
      out.push_back(static_cast<double>(links));
    }
    return out;
  }

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

  /// `options.result_cache` enables the (attribute, range) result cache
  /// (`--cache`); `options.plan` feeds the planner's histograms from the
  /// directories and runs planned execution (`--plan`).
  DirectoryService(std::string system,
                   const resource::AttributeRegistry& registry,
                   const ServiceOptions& options)
      : name_(system), registry_(registry), repl_(std::move(system)),
        advertise_obs_(name_), replicas_(options.replicas),
        plan_(options.plan) {
    if (options.result_cache) result_cache_.Enable();
    if (plan_) {
      selectivity_.Configure(registry_);
      store_.SetEstimator(&selectivity_);
    }
  }

  /// Registers `ring`, whose membership events `observer` hands off. Call
  /// once per ring after it was built (a bulk build refuses an observer);
  /// both must outlive the service. The first ring is the one membership
  /// queries read.
  void AddRing(Ring& ring, typename Ring::ObserverType* observer) {
    ring.SetObserver(observer);
    rings_.push_back(&ring);
    if (ring.RouteCacheEnabled()) placement_width_ = 1;
  }

  /// Runs `q` on `svc`: the executor routes the root lookups
  /// `svc.RootLookups` names for each sub-query and hands their results to
  /// `svc.ResolveSub`, which walks and probes (query_executor.hpp, which
  /// defines it).
  template <typename Service>
  QueryResult ExecuteQuery(const resource::MultiQuery& q,
                           QueryScratch& scratch, const Service& svc) const;

  /// One placement route: `key` on `ring` from the provider of `*info`,
  /// every copy stored with `tag`.
  struct Placement {
    const Ring* ring;
    Key key;
    std::uint8_t tag;
    const resource::ResourceInfo* info;
  };

  /// The `add` a service's Placements calls once per placement of the tuple
  /// it names: add(ring, key, tag) routes `key` on `ring` from the tuple's
  /// provider and stores every copy with `tag`.
  class AddPlacement {
   public:
    void operator()(const Ring& ring, Key key, std::uint8_t tag) const {
      out_.push_back({&ring, key, tag, &info_});
    }

   private:
    friend DirectoryService;
    AddPlacement(std::vector<Placement>& out,
                 const resource::ResourceInfo& info)
        : out_(out), info_(info) {}
    std::vector<Placement>& out_;
    const resource::ResourceInfo& info_;
  };

  /// One directory check at `node` for (attr, [lo, hi]): counts the visit,
  /// appends the matching entries `keep` accepts, and bills the probe; with
  /// metrics on or a trace active it also reports the probe
  /// (ProbeObserved). The caller counts stats.visited_nodes (walks do it
  /// per step).
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
    if (ProbeObserved()) {
      obs::OnDirectoryProbe(node, matches.size() - before,
                            dir != nullptr ? dir->size() : 0, replica_hits);
    }
  }

  /// True when a directory probe has a listener: the `directory.probe_*`
  /// histograms (metrics on) or the active trace. Otherwise the probe skips
  /// the out-of-line report, once per visited node.
  static bool ProbeObserved() {
    return obs::MetricsEnabled() || obs::TracingActive();
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
  /// is const, lock-free atomic counts because the parallel experiment
  /// engine replays queries from many threads.
  mutable VisitCounter visit_counts_;
  /// (attr, range) -> matches (`--cache`); mutable because Query is const.
  /// Invalidated on every event that can change ground truth.
  mutable cache::ResultCache result_cache_;

 private:
  /// Lookups in flight while a block of placements routes: 2 read best of
  /// {2, 4, 8, 16} on perfbench's paper-scale set-up (DESIGN.md §6).
  static constexpr std::size_t kPlacementLanes = 2;
  /// Tuples whose placements AdvertiseAll names, and so keeps, at a time:
  /// the lanes drain once per window, and the buffer stays under 40 KB.
  static constexpr std::size_t kPlacementWindow = 512;

  /// Names the placements of `info` in storing order, calling add(ring,
  /// key, tag) once each: one for LORM, Mercury and SWORD, two for MAAN and
  /// D1HT (the attribute record, then the value record).
  virtual void Placements(const resource::ResourceInfo& info,
                          const AddPlacement& add) const = 0;
  /// The member after `node` in a copy chain on `ring`: the ring successor,
  /// or LORM's cyclic successor inside the owner's cluster.
  virtual NodeAddr NextReplica(const Ring& ring, NodeAddr node) const = 0;
  /// Checks the route of a placement tagged `tag` before anything of it is
  /// stored. LORM accepts a failed one, which stores nothing: the tuple
  /// waits for its provider's next periodic re-advertisement. The
  /// Chord-keyed services' routes from a live provider cannot fail; they
  /// raise an invariant error.
  virtual void CheckRouted(bool routed, std::uint8_t tag) const = 0;

  /// Stores the placement's tuple under its key and tag on `owner` and on
  /// up to replicas - 1 further members, each NextReplica(previous),
  /// stopping when the chain wraps back to the owner. Returns the hops of
  /// the further copies, one each.
  HopCount StoreCopies(const Placement& p, NodeAddr owner) {
    const resource::ResourceInfo& info = *p.info;
    const double ordinal = registry_.Get(info.attr).OrdinalOf(info.value);
    HopCount hops = 0;
    NodeAddr target = owner;
    for (std::size_t copy = 0; copy < replicas_; ++copy) {
      if (copy > 0) {
        target = NextReplica(*p.ring, target);
        if (target == owner) break;  // fewer members than copies
        hops += 1;
      }
      typename Store::Entry e;
      e.info = info;
      e.ordinal = ordinal;
      e.key = p.key;
      e.epoch = epoch_;
      e.tag = p.tag;
      e.replica = static_cast<std::uint8_t>(copy);
      store_.Insert(target, std::move(e));
    }
    return hops;
  }

  /// Closes the placement of a tuple whose every route succeeded: the
  /// attribute's ground truth changed, so its cached results go; the cost
  /// is recorded under "<system>.advertise.*".
  HopCount Advertised(AttrId attr, HopCount hops) {
    result_cache_.InvalidateAttr(attr);
    advertise_obs_.Record(hops);
    return hops;
  }

  /// The most members a ring's identifier space seats.
  static std::uint64_t Capacity(const Ring& ring) {
    if constexpr (requires { ring.capacity(); }) {
      return ring.capacity();  // Cycloid: d * 2^d positions
    } else {
      return ring.space();  // Chord-keyed: 2^bits ids
    }
  }

  /// Flight-records a membership change at the current network size (after
  /// a join, before a leave or crash).
  void RecordMembership(obs::FlightEventKind kind, NodeAddr addr) const {
    if (obs::FlightEnabled()) {
      obs::RecordFlight(kind, name_, addr, NetworkSize());
    }
  }

  AdvertiseInstruments advertise_obs_;
  /// Copies of each placement (ServiceOptions::replicas).
  const std::size_t replicas_;
  /// The placement lanes and the window's named placements, reused, so a
  /// warm AdvertiseAll allocates no route.
  std::array<RouteLane<Ring>, kPlacementLanes> lanes_{};
  std::vector<Placement> placements_;
  /// kPlacementLanes, or 1 once a registered ring's route cache is on.
  std::size_t placement_width_ = kPlacementLanes;
  bool plan_;
  /// Every ring the service routes on, in registration order.
  std::vector<Ring*> rings_;
};

template <typename Ring>
HopCount DirectoryService<Ring>::AdvertiseAll(
    std::span<const resource::ResourceInfo> infos) {
  HopCount total = 0;
  for (std::size_t first = 0; first < infos.size();
       first += kPlacementWindow) {
    placements_.clear();
    for (const resource::ResourceInfo& info : infos.subspan(
             first, std::min(kPlacementWindow, infos.size() - first))) {
      Placements(info, AddPlacement(placements_, info));
    }
    HopCount hops = 0;    // the current tuple's
    bool stored = true;   // every route of the current tuple succeeded
    RouteLanes(
        lanes_.data(), placement_width_, placements_.size(),
        [&](std::size_t i, RouteLane<Ring>& lane) {
          const Placement& p = placements_[i];
          lane.ring = p.ring;
          lane.key = p.key;
          lane.origin = p.info->provider;
        },
        [&](std::size_t i, RouteLane<Ring>& lane) {
          const Placement& p = placements_[i];
          // Every earlier tuple is stored by now, as in one Advertise per
          // tuple; a non-member's route already completed at LookupBegin.
          LORM_CHECK_MSG(lane.ring->Contains(p.info->provider),
                         "provider is not a member of the overlay");
          lane.ring->LookupFinish(lane.state);
          hops += lane.result.hops;
          CheckRouted(lane.result.ok, p.tag);
          if (lane.result.ok) {
            hops += StoreCopies(p, lane.result.owner);
          } else {
            stored = false;
          }
          if (i + 1 < placements_.size() && placements_[i + 1].info == p.info) {
            return;  // the tuple has another placement
          }
          total += stored ? Advertised(p.info->attr, hops) : hops;
          hops = 0;
          stored = true;
        });
  }
  return total;
}

}  // namespace lorm::discovery
