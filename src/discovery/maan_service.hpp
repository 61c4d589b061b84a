// MAAN: Multi-Attribute Addressable Network (Cai, Frank et al., Journal of
// Grid Computing 2004), as modelled by the paper.
//
// One Chord ring; every resource-information tuple is stored *twice*
// (§II: "separately maps the resource attribute and value ... to a single
// DHT, and processes a query by searching them separately"):
//
//   * an attribute record under H(attribute name) — all tuples of one
//     attribute pile up at its attribute root;
//   * a value record under the locality-preserving hash of the value — value
//     records of all attributes interleave over the whole ring.
//
// A point sub-query costs two lookups (attribute root + value root); a range
// sub-query costs the attribute lookup plus a value-segment walk that is
// system-wide, because value records of every attribute share the one ring
// (the n/4-node average walk of Theorem 4.9). The doubled storage is
// Theorem 4.2; the attribute piles give it the worst directory balance
// together with SWORD (Theorem 4.6).
//
// The placement is a template over its ring: MaanService runs it on Chord,
// D1htService (d1ht_service.hpp) on the single-hop ring. Both rings share
// Chord's key space, so the directories, walks and replication protocol
// are the same code.
#pragma once

#include <string>
#include <vector>

#include "chord/chord.hpp"
#include "common/hashing.hpp"
#include "discovery/directory_service.hpp"
#include "singlehop/singlehop.hpp"

namespace lorm::discovery {

/// How MAAN's placement binds to one ring substrate: the ring's
/// configuration, its builder and the system name it runs under.
template <typename Ring>
struct MaanSubstrate;

template <>
struct MaanSubstrate<chord::ChordRing> {
  using Config = chord::Config;
  static constexpr const char* kName = "MAAN";
  static chord::ChordRing Make(std::size_t n, const Config& cfg,
                               bool deterministic_ids) {
    return chord::MakeRing(n, cfg, deterministic_ids);
  }
};

template <>
struct MaanSubstrate<singlehop::SingleHopRing> {
  using Config = singlehop::Config;
  static constexpr const char* kName = "D1HT";
  static singlehop::SingleHopRing Make(std::size_t n, const Config& cfg,
                                       bool deterministic_ids) {
    return singlehop::MakeSingleHopRing(n, cfg, deterministic_ids);
  }
};

/// MAAN's dual placement and query resolution over `Ring` (see the file
/// comment); explicitly instantiated for the two rings in maan_service.cpp.
template <typename Ring>
class BasicMaanService final : public DirectoryService<chord::Key>,
                               private chord::MembershipObserver {
 public:
  struct Config {
    typename MaanSubstrate<Ring>::Config ring;
    bool deterministic_ids = true;
    /// Copies of each record (1 = primary only; replicas go to the owner's
    /// ring successors; both record kinds replicate).
    std::size_t replicas = 1;
    /// Serve repeated (attribute, range) sub-queries from a result cache,
    /// invalidated on every membership/advertise/expiry event (`--cache`).
    bool result_cache = false;
    /// Selectivity-driven query planning (`--plan`): the most selective
    /// sub-query pays the full value-segment walk; every later sub-query is
    /// resolved at its attribute root alone — MAAN's own "single-attribute
    /// dominated query" optimization, driven by the histograms. Off = the
    /// classic path, byte-identical to pre-planner builds.
    bool plan = false;
  };

  /// Entry tags distinguishing the two record kinds.
  static constexpr std::uint8_t kValueRecord = 0;
  static constexpr std::uint8_t kAttributeRecord = 1;

  BasicMaanService(std::size_t n, const resource::AttributeRegistry& registry,
                   Config cfg);
  ~BasicMaanService() override;

  BasicMaanService(const BasicMaanService&) = delete;
  BasicMaanService& operator=(const BasicMaanService&) = delete;

  bool JoinNode(NodeAddr addr) override;
  void LeaveNode(NodeAddr addr) override;
  void FailNode(NodeAddr addr) override;
  bool HasNode(NodeAddr addr) const override { return ring_.Contains(addr); }
  std::size_t NetworkSize() const override { return ring_.size(); }
  std::vector<NodeAddr> Nodes() const override { return ring_.Members(); }
  void Maintain() override { ring_.StabilizeAll(); }
  std::uint64_t MaintenanceMessages() const override {
    return ring_.maintenance().Total();
  }

  HopCount Advertise(const resource::ResourceInfo& info) override;
  QueryResult Query(const resource::MultiQuery& q,
                    QueryScratch& scratch) const override;
  using DiscoveryService::Query;

  std::vector<double> OutlinkCounts() const override;

  chord::Key AttributeKeyFor(AttrId attr) const;
  chord::Key ValueKeyFor(AttrId attr, const resource::AttrValue& v) const;

  const Ring& overlay() const { return ring_; }

 private:
  /// Classic resolution: the attribute root, then the value root and the
  /// system-wide value walk. A dominated sub-query (planned, not the most
  /// selective) is answered from the attribute root's attribute records
  /// alone. The executor's ResolveSub.
  void ResolveSub(NodeAddr requester, const resource::SubQuery& sub,
                  double lo, double hi, bool dominated, Matches& matches,
                  QueryStats& stats, QueryScratch& scratch) const;

  /// Unreplicated crash repair: a tuple's two records (attribute + value)
  /// live on different nodes, so a single crash kills one copy and strands
  /// its twin. Re-synchronizes the two record sets so dominated sub-queries
  /// (which read attribute records) and value walks keep agreeing after
  /// failures.
  void ReconcileTwins(NodeAddr node);

  void OnJoin(NodeAddr node, NodeAddr successor) override;
  void OnLeave(NodeAddr node, NodeAddr successor) override;
  void OnFail(NodeAddr node) override;

  Config cfg_;
  Ring ring_;
  std::vector<chord::Key> attr_key_;
  std::vector<LocalityPreservingHash> lph_;
};

extern template class BasicMaanService<chord::ChordRing>;
extern template class BasicMaanService<singlehop::SingleHopRing>;

/// MAAN as the paper models it: the placement on one Chord ring.
using MaanService = BasicMaanService<chord::ChordRing>;

}  // namespace lorm::discovery
