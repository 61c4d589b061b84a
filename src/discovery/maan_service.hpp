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
// are the same code. DirectoryService runs joins, leaves and crashes; the
// ring's observer is the shared Chord-keyed handoff (RingHandoff), except
// that an unreplicated crash also re-synchronizes the lost records' twins
// (ReconcileTwins).
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
  static chord::ChordRing Make(std::size_t n, const Config& cfg) {
    return chord::MakeRing(n, cfg, /*deterministic_ids=*/true);
  }
};

template <>
struct MaanSubstrate<singlehop::SingleHopRing> {
  using Config = singlehop::Config;
  static constexpr const char* kName = "D1HT";
  static singlehop::SingleHopRing Make(std::size_t n, const Config& cfg) {
    return singlehop::MakeSingleHopRing(n, cfg, /*deterministic_ids=*/true);
  }
};

/// MAAN's dual placement and query resolution over `Ring` (see the file
/// comment); explicitly instantiated for the two rings in maan_service.cpp.
/// Both record kinds replicate to the owner's ring successors. With
/// `plan`, the most selective sub-query pays the full value-segment walk
/// and every later one is answered at its attribute root alone: MAAN's own
/// "single-attribute dominated query", driven by the histograms.
template <typename Ring>
class BasicMaanService final : public DirectoryService<Ring> {
 public:
  struct Config : ServiceOptions {
    typename MaanSubstrate<Ring>::Config ring{};
  };

  /// Entry tags distinguishing the two record kinds.
  static constexpr std::uint8_t kValueRecord = 0;
  static constexpr std::uint8_t kAttributeRecord = 1;

  BasicMaanService(std::size_t n, const resource::AttributeRegistry& registry,
                   Config cfg);

  QueryResult Query(const resource::MultiQuery& q,
                    QueryScratch& scratch) const override;
  using DiscoveryService::Query;

  chord::Key AttributeKeyFor(AttrId attr) const;
  chord::Key ValueKeyFor(AttrId attr, const resource::AttrValue& v) const;

  const Ring& overlay() const { return ring_; }

 private:
  friend DirectoryService<Ring>;  // the executor calls RootLookups, ResolveSub
  using Matches = typename DirectoryService<Ring>::Matches;
  using Entry = typename DirectoryService<Ring>::Store::Entry;
  using AddPlacement = typename DirectoryService<Ring>::AddPlacement;

  /// Two placements: the attribute record at the attribute root, then the
  /// value record at the value's locality-preserving hash. Both replicate
  /// to the owner's ring successors.
  void Placements(const resource::ResourceInfo& info,
                  const AddPlacement& add) const override {
    add(ring_, AttributeKeyFor(info.attr), kAttributeRecord);
    add(ring_, ValueKeyFor(info.attr, info.value), kValueRecord);
  }
  NodeAddr NextReplica(const Ring& ring, NodeAddr node) const override {
    return ring.Successor(node);
  }
  void CheckRouted(bool routed, std::uint8_t tag) const override;

  /// Two root lookups: the attribute root (resolves the attribute name),
  /// then the value root. A dominated sub-query (planned, not the most
  /// selective) needs the attribute root alone.
  template <typename Add>
  void RootLookups(const resource::SubQuery& sub, double lo, bool dominated,
                   Add&& add) const {
    add(ring_, AttributeKeyFor(sub.attr));
    if (!dominated) add(ring_, lph_[sub.attr](lo));
  }
  /// Classic resolution: checks the attribute root, then walks the value
  /// segment system-wide from the value root. A dominated sub-query is
  /// answered from the attribute root's attribute records alone.
  void ResolveSub(const resource::SubQuery& sub, double lo, double hi,
                  bool dominated, const RouteLane<Ring>* roots,
                  Matches& matches, QueryStats& stats) const;

  /// Unreplicated crash repair: a tuple's two records (attribute + value)
  /// live on different nodes, so a single crash kills one copy and strands
  /// its twin. Re-synchronizes the two record sets so dominated sub-queries
  /// (which read attribute records) and value walks keep agreeing after
  /// failures.
  void ReconcileTwins(NodeAddr node);

  /// The shared handoff; an unreplicated crash also reconciles the twins,
  /// while the crashed node is still in the ring's ownership oracle.
  class Handoff final : public RingHandoff<Ring, AllEntries> {
   public:
    explicit Handoff(BasicMaanService& svc)
        : RingHandoff<Ring, AllEntries>(svc.ring_, svc.store_,
                                        svc.result_cache_, svc.repl_,
                                        svc.cfg_.replicas),
          svc_(svc) {}
    void OnFail(NodeAddr node) override {
      RingHandoff<Ring, AllEntries>::OnFail(node);
      if (this->replicas() == 1) svc_.ReconcileTwins(node);
    }

   private:
    BasicMaanService& svc_;
  };

  Config cfg_;
  Ring ring_;
  Handoff handoff_;
  std::vector<chord::Key> attr_key_;
  std::vector<LocalityPreservingHash> lph_;
};

extern template class BasicMaanService<chord::ChordRing>;
extern template class BasicMaanService<singlehop::SingleHopRing>;

/// MAAN as the paper models it: the placement on one Chord ring.
using MaanService = BasicMaanService<chord::ChordRing>;

}  // namespace lorm::discovery
