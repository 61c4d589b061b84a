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

void SwordService::CheckRouted(bool routed, std::uint8_t /*tag*/) const {
  // A live provider's route falls back on successor lists.
  LORM_CHECK_MSG(routed, "SWORD advertise lookup failed to route");
}

QueryResult SwordService::Query(const resource::MultiQuery& q,
                                QueryScratch& scratch) const {
  return ExecuteQuery(q, scratch, *this);
}

void SwordService::ResolveSub(const resource::SubQuery& sub, double lo,
                              double hi, bool /*dominated*/,
                              const RouteLane<chord::ChordRing>* roots,
                              Matches& matches, QueryStats& stats) const {
  if (!roots[0].result.ok) return;
  // The attribute's entire directory is at the root: ranges resolve
  // locally, no forwarding (Theorem 4.9's m visited nodes per query).
  stats.visited_nodes += 1;
  Probe(roots[0].result.owner, sub.attr, lo, hi, kAllEntries, matches, stats);
}

}  // namespace lorm::discovery
