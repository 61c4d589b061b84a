#include "discovery/sword_service.hpp"

#include <utility>

#include "common/error.hpp"
#include "discovery/query_executor.hpp"
#include "obs/flight.hpp"

namespace lorm::discovery {

SwordService::SwordService(std::size_t n,
                           const resource::AttributeRegistry& registry,
                           Config cfg)
    : DirectoryService("SWORD", registry, cfg.result_cache, cfg.plan),
      cfg_(cfg),
      ring_(chord::MakeRing(n, cfg.ring, cfg.deterministic_ids)) {
  const ConsistentHash ch(cfg_.ring.bits);
  attr_key_.reserve(registry_.size());
  for (AttrId a = 0; a < registry_.size(); ++a) {
    attr_key_.push_back(ch(registry_.Get(a).name()));
  }
  ring_.SetObserver(this);
}

chord::Key SwordService::KeyFor(AttrId attr) const {
  LORM_CHECK_MSG(attr < attr_key_.size(), "attribute id out of range");
  return attr_key_[attr];
}

bool SwordService::JoinNode(NodeAddr addr) {
  if (ring_.size() >= ring_.space()) return false;
  ring_.AddNode(addr);
  RecordMembership(obs::FlightEventKind::kJoin, addr);
  return true;
}

void SwordService::LeaveNode(NodeAddr addr) {
  RecordMembership(obs::FlightEventKind::kLeave, addr);
  ring_.RemoveNode(addr);
}

void SwordService::FailNode(NodeAddr addr) {
  RecordMembership(obs::FlightEventKind::kCrash, addr);
  ring_.FailNode(addr);
}

HopCount SwordService::Advertise(const resource::ResourceInfo& info) {
  HopCount hops = 0;
  const bool placed =
      Place(ring_, info, KeyFor(info.attr), /*tag=*/0, cfg_.replicas,
            [this](NodeAddr a) { return ring_.Successor(a); }, hops);
  LORM_CHECK_MSG(placed, "SWORD advertise lookup failed to route");
  return Advertised(info.attr, hops);
}

QueryResult SwordService::Query(const resource::MultiQuery& q,
                                QueryScratch& scratch) const {
  return ExecuteQuery<chord::ChordRing>(q, scratch, *this);
}

void SwordService::ResolveSub(const resource::SubQuery& sub, double lo,
                              double hi, bool /*dominated*/,
                              const RootLane<chord::ChordRing>* roots,
                              Matches& matches, QueryStats& stats) const {
  if (!roots[0].result.ok) return;
  // The attribute's entire directory is at the root: ranges resolve
  // locally, no forwarding (Theorem 4.9's m visited nodes per query).
  stats.visited_nodes += 1;
  Probe(roots[0].result.owner, sub.attr, lo, hi, kAllEntries, matches, stats);
}

std::vector<double> SwordService::OutlinkCounts() const {
  std::vector<double> out;
  for (NodeAddr addr : ring_.Members()) {
    out.push_back(static_cast<double>(ring_.Outlinks(addr)));
  }
  return out;
}

void SwordService::OnJoin(NodeAddr node, NodeAddr successor) {
  result_cache_.InvalidateAll();  // the join re-homed part of some arc
  RingJoinHandoff(ring_, store_, cfg_.replicas, node, successor, repl_,
                  kAllEntries);
}

void SwordService::OnFail(NodeAddr node) {
  result_cache_.InvalidateAll();
  if (cfg_.replicas > 1) {
    ChordReplicaFail(ring_, store_, cfg_.replicas, node, repl_, kAllEntries);
  }
  store_.Drop(node);  // the crashed node's copies do not survive
}

void SwordService::OnLeave(NodeAddr node, NodeAddr successor) {
  result_cache_.InvalidateAll();
  RingLeaveHandoff(ring_, store_, cfg_.replicas, node, successor, repl_,
                   kAllEntries);
  store_.Drop(node);
}

}  // namespace lorm::discovery
