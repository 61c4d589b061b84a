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
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "chord/chord.hpp"
#include "common/hashing.hpp"
#include "discovery/directory_service.hpp"

namespace lorm::discovery {

class MercuryService final : public DirectoryService<chord::Key> {
 public:
  struct Config {
    chord::Config ring;  ///< per-hub Chord parameters (bits sized to n)
    /// Copies of each directory entry (1 = primary only; replicas go to the
    /// owner's ring successors).
    std::size_t replicas = 1;
    /// Evenly spaced deterministic IDs (the paper's fully populated rings)
    /// for the initial population; churn joins always use hashed IDs.
    bool deterministic_ids = true;
    /// Serve repeated (attribute, range) sub-queries from a result cache,
    /// invalidated on every membership/advertise/expiry event (`--cache`).
    bool result_cache = false;
    /// Selectivity-driven query planning (`--plan`): execute sub-queries
    /// most-selective-first and stop walking hubs once the candidate
    /// intersection empties. Off = the classic path, byte-identical to
    /// pre-planner builds.
    bool plan = false;
  };

  MercuryService(std::size_t n, const resource::AttributeRegistry& registry,
                 Config cfg);
  ~MercuryService() override;

  MercuryService(const MercuryService&) = delete;
  MercuryService& operator=(const MercuryService&) = delete;

  bool JoinNode(NodeAddr addr) override;
  void LeaveNode(NodeAddr addr) override;
  void FailNode(NodeAddr addr) override;
  bool HasNode(NodeAddr addr) const override;
  std::size_t NetworkSize() const override;
  std::vector<NodeAddr> Nodes() const override;
  void Maintain() override;
  std::uint64_t MaintenanceMessages() const override;

  HopCount Advertise(const resource::ResourceInfo& info) override;
  QueryResult Query(const resource::MultiQuery& q,
                    QueryScratch& scratch) const override;
  using DiscoveryService::Query;

  std::vector<double> OutlinkCounts() const override;

  chord::Key KeyFor(AttrId attr, const resource::AttrValue& v) const;
  const chord::ChordRing& hub(AttrId attr) const;

 private:
  /// Routes to the root of the range's lower endpoint in the attribute's
  /// hub and walks hub successors over the range (the executor's
  /// ResolveSub).
  void ResolveSub(NodeAddr requester, const resource::SubQuery& sub,
                  double lo, double hi, bool dominated, Matches& matches,
                  QueryStats& stats, QueryScratch& scratch) const;

  /// Adapter wiring one hub's membership events back to the service.
  class HubObserver final : public chord::MembershipObserver {
   public:
    HubObserver(MercuryService* svc, AttrId attr) : svc_(svc), attr_(attr) {}
    void OnJoin(NodeAddr node, NodeAddr successor) override;
    void OnLeave(NodeAddr node, NodeAddr successor) override;
    void OnFail(NodeAddr node) override;

   private:
    MercuryService* svc_;
    AttrId attr_;
  };

  void HubJoin(AttrId attr, NodeAddr node, NodeAddr successor);
  void HubLeave(AttrId attr, NodeAddr node, NodeAddr successor);
  void HubFail(AttrId attr, NodeAddr node);

  Config cfg_;
  std::vector<std::unique_ptr<chord::ChordRing>> hubs_;  // one per attribute
  std::vector<std::unique_ptr<HubObserver>> observers_;
  std::vector<LocalityPreservingHash> lph_;  // one per attribute
};

}  // namespace lorm::discovery
