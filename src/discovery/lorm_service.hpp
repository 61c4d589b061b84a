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
//
// DirectoryService runs joins, leaves and crashes on the Cycloid; LORM is
// the ring's observer and hands off within the affected clusters itself
// (OnJoin, OnLeave, OnFail), since its replicas follow cyclic successors
// inside a cluster rather than a global ring.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/hashing.hpp"
#include "cycloid/cycloid.hpp"
#include "discovery/directory_service.hpp"

namespace lorm::discovery {

class LormService final : public DirectoryService<cycloid::CycloidNetwork>,
                          private cycloid::MembershipObserver {
 public:
  /// Replicas go to the owner's cyclic successors (crash resilience; see
  /// the robustness_replication bench).
  struct Config : ServiceOptions {
    cycloid::Config overlay{};
    /// If set, the locality-preserving hash equalizes through this CDF of
    /// the value distribution (load-balance ablation, DESIGN.md §5.2); the
    /// default is MAAN's linear construction, as in the paper.
    std::function<double(double)> value_cdf{};
  };

  /// Builds a LORM system of `n` nodes (addresses 0..n-1), evenly populated
  /// over the Cycloid's d * 2^d positions.
  LormService(std::size_t n, const resource::AttributeRegistry& registry,
              Config cfg);

  HopCount Advertise(const resource::ResourceInfo& info) override;
  QueryResult Query(const resource::MultiQuery& q,
                    QueryScratch& scratch) const override;
  using DiscoveryService::Query;

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
