// LORM: Low-Overhead Range-query Multi-attribute resource discovery.
//
// The paper's contribution (§III). LORM runs on a single Cycloid and exploits
// its two-level ID structure:
//
//   * the *cubical* index of a resource ID is the consistent hash of the
//     attribute name  — so each cluster is responsible for one attribute
//     (modulo hash collisions);
//   * the *cyclic* index is the locality-preserving hash of the attribute
//     value — so within a cluster, values map to nodes in order, and a value
//     range maps to a contiguous arc of the small cycle.
//
// A point sub-query is one Cycloid lookup. A range sub-query routes to the
// root of the range's lower endpoint and then walks inside-leaf-set
// successors until the node owning the upper endpoint has been visited
// (Proposition 3.1 guarantees all matches lie on that arc). Sub-queries of a
// multi-attribute query resolve in parallel and are joined on the provider
// address.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/hashing.hpp"
#include "cycloid/cycloid.hpp"
#include "discovery/directory_service.hpp"

namespace lorm::discovery {

class LormService final : public DirectoryService<cycloid::CycloidId>,
                          private cycloid::MembershipObserver {
 public:
  struct Config {
    cycloid::Config overlay;
    /// Copies of each directory entry: 1 = primary only; r > 1 additionally
    /// places r-1 replicas on the owner's cyclic successors (crash
    /// resilience — see the robustness_replication bench).
    std::size_t replicas = 1;
    /// If set, the locality-preserving hash equalizes through this CDF of
    /// the value distribution (load-balance ablation, DESIGN.md §5.2); the
    /// default is MAAN's linear construction, as in the paper.
    std::function<double(double)> value_cdf;
    /// Serve repeated (attribute, range) sub-queries from a result cache,
    /// invalidated on every membership/advertise/expiry event (`--cache`).
    bool result_cache = false;
    /// Selectivity-driven query planning (`--plan`): execute sub-queries
    /// most-selective-first and stop walking clusters once the candidate
    /// intersection empties. Off = the classic path, byte-identical to
    /// pre-planner builds.
    bool plan = false;
  };

  /// Builds a LORM system of `n` nodes (addresses 0..n-1), evenly populated
  /// over the Cycloid's d * 2^d positions.
  LormService(std::size_t n, const resource::AttributeRegistry& registry,
              Config cfg);

  bool JoinNode(NodeAddr addr) override;
  void LeaveNode(NodeAddr addr) override;
  void FailNode(NodeAddr addr) override;
  bool HasNode(NodeAddr addr) const override { return net_.Contains(addr); }
  std::size_t NetworkSize() const override { return net_.size(); }
  std::vector<NodeAddr> Nodes() const override { return net_.Members(); }
  void Maintain() override { net_.StabilizeAll(); }
  std::uint64_t MaintenanceMessages() const override {
    return net_.maintenance().Total();
  }

  HopCount Advertise(const resource::ResourceInfo& info) override;
  QueryResult Query(const resource::MultiQuery& q,
                    QueryScratch& scratch) const override;
  using DiscoveryService::Query;

  std::vector<double> OutlinkCounts() const override;

  /// The resource ID ⟨𝓗(π_a), H(a)⟩ of an (attribute, value) pair.
  cycloid::CycloidId KeyFor(AttrId attr, const resource::AttrValue& v) const;

  const cycloid::CycloidNetwork& overlay() const { return net_; }

 private:
  friend DirectoryService;  // the executor calls the two below

  /// One root lookup: the owner of the range's lower endpoint.
  template <typename Add>
  void RootLookups(const resource::SubQuery& sub, double lo,
                   bool /*dominated*/, Add&& add) const {
    add(net_, cycloid::CycloidId{CyclicOf(sub.attr, lo), CubicalOf(sub.attr)});
  }
  /// Walks the small cycle's successors over the range from that owner.
  void ResolveSub(const resource::SubQuery& sub, double lo, double hi,
                  bool dominated,
                  const RootLane<cycloid::CycloidNetwork>* roots,
                  Matches& matches, QueryStats& stats) const;

  /// Replicated handoff (replicas > 1): re-establishes, for every cluster
  /// resolving one of `cubicals`, the invariant that each surviving tuple
  /// sits on its key's owner plus the owner's next replicas-1 live cyclic
  /// successors. `pool` carries copies taken from a departed node; copies
  /// already in place are re-labelled but not billed as moved. `kind` and
  /// `node` attribute the flight-recorder event to the membership change
  /// that triggered the rebuild.
  void RebuildClusterReplicas(std::vector<Store::Entry> pool,
                              const std::vector<std::uint64_t>& cubicals,
                              obs::FlightEventKind kind, NodeAddr node);

  void OnJoin(NodeAddr node,
              const std::vector<NodeAddr>& possible_sources) override;
  void OnLeave(NodeAddr node) override;
  void OnFail(NodeAddr node) override;

  std::uint64_t CubicalOf(AttrId attr) const;
  unsigned CyclicOf(AttrId attr, double ordinal) const;

  Config cfg_;
  cycloid::CycloidNetwork net_;
  std::vector<std::uint64_t> attr_cubical_;  // H(a) per attribute
};

}  // namespace lorm::discovery
