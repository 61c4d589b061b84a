#include "discovery/mercury_service.hpp"

#include <memory>

#include "common/error.hpp"
#include "discovery/query_executor.hpp"
#include "discovery/ring_walk.hpp"

namespace lorm::discovery {

MercuryService::MercuryService(std::size_t n,
                               const resource::AttributeRegistry& registry,
                               Config cfg)
    : DirectoryService("Mercury", registry, cfg), cfg_(cfg) {
  LORM_CHECK_MSG(registry_.size() != 0,
                 "Mercury needs at least one attribute hub");
  hubs_.reserve(registry_.size());
  handoffs_.reserve(registry_.size());
  lph_.reserve(registry_.size());
  for (AttrId a = 0; a < registry_.size(); ++a) {
    chord::Config ring_cfg = cfg_.ring;
    // Distinct seed per hub: a node sits at independent positions in each.
    ring_cfg.seed = MixHashes(cfg_.ring.seed, a);
    hubs_.push_back(std::make_unique<chord::ChordRing>(
        chord::MakeRing(n, ring_cfg, /*deterministic_ids=*/true)));
    const auto& schema = registry_.Get(a);
    lph_.emplace_back(cfg_.ring.bits, schema.ordinal_min(),
                      schema.ordinal_max());
    handoffs_.push_back(std::make_unique<HubHandoff>(
        *hubs_.back(), store_, result_cache_, repl_, cfg_.replicas,
        OfAttr{a}));
    AddRing(*hubs_.back(), handoffs_.back().get());
  }
}

const chord::ChordRing& MercuryService::hub(AttrId attr) const {
  LORM_CHECK_MSG(attr < hubs_.size(), "attribute id out of range");
  return *hubs_[attr];
}

chord::Key MercuryService::KeyFor(AttrId attr,
                                  const resource::AttrValue& v) const {
  return lph_[attr](registry_.Get(attr).OrdinalOf(v));
}

void MercuryService::CheckRouted(bool routed, std::uint8_t /*tag*/) const {
  // A live provider's hub route falls back on successor lists.
  LORM_CHECK_MSG(routed, "Mercury advertise lookup failed to route");
}

QueryResult MercuryService::Query(const resource::MultiQuery& q,
                                  QueryScratch& scratch) const {
  return ExecuteQuery(q, scratch, *this);
}

void MercuryService::ResolveSub(const resource::SubQuery& sub, double lo,
                                double hi, bool /*dominated*/,
                                const RouteLane<chord::ChordRing>* roots,
                                Matches& matches, QueryStats& stats) const {
  const RouteLane<chord::ChordRing>& root = roots[0];
  if (!root.result.ok) return;
  WalkSuccessors(*root.ring, root.result.owner, root.key, lph_[sub.attr](hi),
                 stats, [&](NodeAddr cur) {
                   Probe(cur, sub.attr, lo, hi, kAllEntries, matches, stats);
                 });
}

}  // namespace lorm::discovery
