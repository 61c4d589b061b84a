// SWORD-style single-DHT centralized resource discovery
// (Oppenheimer et al., UC Berkeley TR CSD04-1334), as modelled by the paper.
//
// One Chord ring; the consistent hash of the *attribute name* is the key, so
// all resource information of one attribute pools at a single directory node
// (§II: "pools together resource information of all values for a specific
// resource attribute in a single node"). Range sub-queries are resolved
// entirely inside that node's directory — one lookup, one visited node —
// at the price of the worst information-balance of the four systems
// (Theorems 4.4, 4.9). Per the paper's setup, Bamboo is replaced by Chord.
//
// DirectoryService runs joins, leaves and crashes over the one ring, whose
// observer is the shared Chord-keyed handoff (RingHandoff); this file is
// SWORD's placement and its one-lookup, one-probe sub-query.
#pragma once

#include <string>
#include <vector>

#include "chord/chord.hpp"
#include "common/hashing.hpp"
#include "discovery/directory_service.hpp"

namespace lorm::discovery {

class SwordService final : public DirectoryService<chord::ChordRing> {
 public:
  /// Replicas go to the owner's ring successors.
  struct Config : ServiceOptions {
    chord::Config ring{};
  };

  SwordService(std::size_t n, const resource::AttributeRegistry& registry,
               Config cfg);

  QueryResult Query(const resource::MultiQuery& q,
                    QueryScratch& scratch) const override;
  using DiscoveryService::Query;

  /// The placement key of an attribute: H(attribute name).
  chord::Key KeyFor(AttrId attr) const;

  const chord::ChordRing& overlay() const { return ring_; }

 private:
  friend DirectoryService;  // the executor calls RootLookups and ResolveSub

  /// One placement, at the attribute root; replicas go to its successors.
  void Placements(const resource::ResourceInfo& info,
                  const AddPlacement& add) const override {
    add(ring_, KeyFor(info.attr), /*tag=*/0);
  }
  NodeAddr NextReplica(const chord::ChordRing& ring,
                       NodeAddr node) const override {
    return ring.Successor(node);
  }
  void CheckRouted(bool routed, std::uint8_t tag) const override;

  /// One root lookup: the attribute root.
  template <typename Add>
  void RootLookups(const resource::SubQuery& sub, double /*lo*/,
                   bool /*dominated*/, Add&& add) const {
    add(ring_, KeyFor(sub.attr));
  }
  /// Scans the attribute root's directory for the range.
  void ResolveSub(const resource::SubQuery& sub, double lo, double hi,
                  bool dominated, const RouteLane<chord::ChordRing>* roots,
                  Matches& matches, QueryStats& stats) const;

  chord::ChordRing ring_;
  RingHandoff<chord::ChordRing, AllEntries> handoff_;
  std::vector<chord::Key> attr_key_;
};

}  // namespace lorm::discovery
