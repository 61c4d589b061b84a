#include "discovery/sword_service.hpp"

#include "common/error.hpp"
#include "discovery/query_executor.hpp"

namespace lorm::discovery {

SwordService::SwordService(std::size_t n,
                           const resource::AttributeRegistry& registry,
                           Config cfg)
    : DirectoryService("SWORD", registry, cfg),
      cfg_(cfg),
      ring_(chord::MakeRing(n, cfg.ring, /*deterministic_ids=*/true)),
      handoff_(ring_, store_, result_cache_, repl_, cfg.replicas) {
  const ConsistentHash ch(cfg_.ring.bits);
  attr_key_.reserve(registry_.size());
  for (AttrId a = 0; a < registry_.size(); ++a) {
    attr_key_.push_back(ch(registry_.Get(a).name()));
  }
  AddRing(ring_, &handoff_);
}

chord::Key SwordService::KeyFor(AttrId attr) const {
  LORM_CHECK_MSG(attr < attr_key_.size(), "attribute id out of range");
  return attr_key_[attr];
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
  return ExecuteQuery(q, scratch, *this);
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

}  // namespace lorm::discovery
