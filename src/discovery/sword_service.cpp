#include "discovery/sword_service.hpp"

#include <utility>

#include "common/error.hpp"
#include "discovery/query_executor.hpp"
#include "discovery/query_obs.hpp"
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
  ring_.AddObserver(this);
}

SwordService::~SwordService() { ring_.RemoveObserver(this); }

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
  LORM_CHECK_MSG(ring_.Contains(info.provider),
                 "provider is not a member of the overlay");
  const chord::Key key = KeyFor(info.attr);
  const auto res = ring_.Lookup(key, info.provider);
  LORM_CHECK_MSG(res.ok, "SWORD advertise lookup failed to route");
  HopCount hops = res.hops;
  NodeAddr target = res.owner;
  for (std::size_t copy = 0; copy < cfg_.replicas; ++copy) {
    if (copy > 0) {
      target = ring_.Successor(target);
      if (target == res.owner) break;  // ring smaller than the factor
      hops += 1;
    }
    Store::Entry e;
    e.info = info;
    e.ordinal = registry_.Get(info.attr).OrdinalOf(info.value);
    e.key = key;
    e.epoch = epoch_;
    e.replica = static_cast<std::uint8_t>(copy);
    store_.Insert(target, std::move(e));
  }
  // A new advertisement changes the attribute's ground truth.
  result_cache_.InvalidateAttr(info.attr);
  static AdvertiseInstruments advertise_obs(name_);
  advertise_obs.Record(hops);
  return hops;
}

QueryResult SwordService::Query(const resource::MultiQuery& q,
                                QueryScratch& scratch) const {
  return ExecuteQuery(q, scratch,
                      [this](auto&&... args) { ResolveSub(args...); });
}

void SwordService::ResolveSub(NodeAddr requester, const resource::SubQuery& sub,
                              double lo, double hi, bool /*dominated*/,
                              Matches& matches, QueryStats& stats,
                              QueryScratch& scratch) const {
  chord::LookupResult& res = scratch.chord;
  if (!Route(ring_, KeyFor(sub.attr), requester, res, stats)) return;
  // The attribute's entire directory is at the root: ranges resolve
  // locally, no forwarding (Theorem 4.9's m visited nodes per query).
  stats.visited_nodes += 1;
  Probe(res.owner, sub.attr, lo, hi, kAllEntries, matches, stats);
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
