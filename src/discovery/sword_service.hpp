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
#pragma once

#include <string>
#include <vector>

#include "chord/chord.hpp"
#include "common/hashing.hpp"
#include "discovery/directory_service.hpp"

namespace lorm::discovery {

class SwordService final : public DirectoryService<chord::Key>,
                           private chord::MembershipObserver {
 public:
  struct Config {
    chord::Config ring;
    bool deterministic_ids = true;
    /// Copies of each directory entry (1 = primary only; replicas go to the
    /// owner's ring successors).
    std::size_t replicas = 1;
    /// Serve repeated (attribute, range) sub-queries from a result cache,
    /// invalidated on every membership/advertise/expiry event (`--cache`).
    bool result_cache = false;
    /// Selectivity-driven query planning (`--plan`): execute sub-queries
    /// most-selective-first, intersect incrementally, stop when the
    /// candidate set empties. Off = the classic path, byte-identical to
    /// pre-planner builds.
    bool plan = false;
  };

  SwordService(std::size_t n, const resource::AttributeRegistry& registry,
               Config cfg);
  ~SwordService() override;

  SwordService(const SwordService&) = delete;
  SwordService& operator=(const SwordService&) = delete;

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

  /// The placement key of an attribute: H(attribute name).
  chord::Key KeyFor(AttrId attr) const;

  const chord::ChordRing& overlay() const { return ring_; }

 private:
  /// Routes to the attribute root and scans its directory (the executor's
  /// ResolveSub).
  void ResolveSub(NodeAddr requester, const resource::SubQuery& sub,
                  double lo, double hi, bool dominated, Matches& matches,
                  QueryStats& stats, QueryScratch& scratch) const;

  void OnJoin(NodeAddr node, NodeAddr successor) override;
  void OnLeave(NodeAddr node, NodeAddr successor) override;
  void OnFail(NodeAddr node) override;

  Config cfg_;
  chord::ChordRing ring_;
  std::vector<chord::Key> attr_key_;
};

}  // namespace lorm::discovery
