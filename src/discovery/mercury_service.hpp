// Mercury: multi-attribute range queries over one DHT per attribute
// (Bharambe, Agrawal, Seshan — SIGCOMM 2004), as modelled by the paper.
//
// Each attribute has its own "hub" — here a full Chord ring containing every
// node, as the paper prescribes ("we use Chord for attribute hubs in
// Mercury"). Within hub a, a tuple is placed by the locality-preserving hash
// of its value, so ranges are contiguous ring segments. A node therefore
// maintains routing state in all m rings (m * O(log n) outlinks — the
// overhead Theorem 4.1 charges against it), while its resource information
// is spread value-uniformly (the balance Theorem 4.5 credits it with).
//
// The data-record/pointer optimization of the original system is disabled,
// exactly as in the paper's comparative setup (§IV).
//
// Every hub is registered with DirectoryService, which adds, removes and
// fails a node on all m hubs in turn and drops its directory once the last
// hub ran. Each hub's observer is the shared Chord-keyed handoff
// (RingHandoff) filtered to the hub's attribute, so a membership change
// invalidates the result cache once per hub.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "chord/chord.hpp"
#include "common/hashing.hpp"
#include "discovery/directory_service.hpp"

namespace lorm::discovery {

class MercuryService final : public DirectoryService<chord::ChordRing> {
 public:
  /// Replicas go to the owner's successors in its attribute's hub.
  struct Config : ServiceOptions {
    chord::Config ring{};  ///< per-hub Chord parameters (bits sized to n)
  };

  MercuryService(std::size_t n, const resource::AttributeRegistry& registry,
                 Config cfg);

  QueryResult Query(const resource::MultiQuery& q,
                    QueryScratch& scratch) const override;
  using DiscoveryService::Query;

  chord::Key KeyFor(AttrId attr, const resource::AttrValue& v) const;
  const chord::ChordRing& hub(AttrId attr) const;

 private:
  friend DirectoryService;  // the executor calls RootLookups and ResolveSub

  /// One placement, by the value's locality-preserving hash in the
  /// attribute's hub; replicas go to the owner's hub successors.
  void Placements(const resource::ResourceInfo& info,
                  const AddPlacement& add) const override {
    add(hub(info.attr), KeyFor(info.attr, info.value), /*tag=*/0);
  }
  NodeAddr NextReplica(const chord::ChordRing& hub,
                       NodeAddr node) const override {
    return hub.Successor(node);
  }
  void CheckRouted(bool routed, std::uint8_t tag) const override;

  /// One root lookup: the owner of the range's lower endpoint in the
  /// attribute's hub.
  template <typename Add>
  void RootLookups(const resource::SubQuery& sub, double lo,
                   bool /*dominated*/, Add&& add) const {
    add(hub(sub.attr), lph_[sub.attr](lo));
  }
  /// Walks hub successors over the range from that root.
  void ResolveSub(const resource::SubQuery& sub, double lo, double hi,
                  bool dominated, const RouteLane<chord::ChordRing>* roots,
                  Matches& matches, QueryStats& stats) const;

  /// A hub's handoff touches only its own attribute's entries in the
  /// shared store.
  struct OfAttr {
    AttrId attr = 0;
    bool operator()(const Store::Entry& e) const { return e.info.attr == attr; }
  };
  using HubHandoff = RingHandoff<chord::ChordRing, OfAttr>;

  Config cfg_;
  std::vector<std::unique_ptr<chord::ChordRing>> hubs_;  // one per attribute
  std::vector<std::unique_ptr<HubHandoff>> handoffs_;    // one per hub
  std::vector<LocalityPreservingHash> lph_;              // one per attribute
};

}  // namespace lorm::discovery
