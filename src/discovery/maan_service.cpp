#include "discovery/maan_service.hpp"

#include <utility>

#include "common/error.hpp"
#include "discovery/query_executor.hpp"
#include "discovery/ring_walk.hpp"

namespace lorm::discovery {

template <typename Ring>
BasicMaanService<Ring>::BasicMaanService(
    std::size_t n, const resource::AttributeRegistry& registry, Config cfg)
    : DirectoryService<Ring>(MaanSubstrate<Ring>::kName, registry, cfg),
      cfg_(cfg),
      ring_(MaanSubstrate<Ring>::Make(n, cfg.ring)),
      handoff_(*this) {
  const ConsistentHash ch(cfg_.ring.bits);
  attr_key_.reserve(registry.size());
  lph_.reserve(registry.size());
  for (AttrId a = 0; a < registry.size(); ++a) {
    const auto& schema = registry.Get(a);
    attr_key_.push_back(ch(schema.name()));
    lph_.emplace_back(cfg_.ring.bits, schema.ordinal_min(),
                      schema.ordinal_max());
  }
  this->AddRing(ring_, &handoff_);
}

template <typename Ring>
chord::Key BasicMaanService<Ring>::AttributeKeyFor(AttrId attr) const {
  LORM_CHECK_MSG(attr < attr_key_.size(), "attribute id out of range");
  return attr_key_[attr];
}

template <typename Ring>
chord::Key BasicMaanService<Ring>::ValueKeyFor(
    AttrId attr, const resource::AttrValue& v) const {
  return lph_[attr](this->registry_.Get(attr).OrdinalOf(v));
}

template <typename Ring>
void BasicMaanService<Ring>::CheckRouted(bool routed, std::uint8_t tag) const {
  // A live provider's route falls back on successor lists (Chord) or the
  // full membership table (single-hop).
  LORM_CHECK_MSG(routed || tag != kAttributeRecord,
                 this->name_ + " attribute-record insert failed to route");
  LORM_CHECK_MSG(routed,
                 this->name_ + " value-record insert failed to route");
}

template <typename Ring>
QueryResult BasicMaanService<Ring>::Query(const resource::MultiQuery& q,
                                          QueryScratch& scratch) const {
  return this->ExecuteQuery(q, scratch, *this);
}

template <typename Ring>
void BasicMaanService<Ring>::ResolveSub(
    const resource::SubQuery& sub, double lo, double hi, bool dominated,
    const RouteLane<Ring>* roots, Matches& matches, QueryStats& stats) const {
  const auto& attr_root = roots[0].result;
  if (dominated) {
    // Dominated sub-query: the attribute root holds every tuple of this
    // attribute as attribute records, so one lookup answers the range — no
    // value walk. This is MAAN's single-attribute dominated query.
    if (!attr_root.ok) return;
    stats.visited_nodes += 1;
    this->Probe(attr_root.owner, sub.attr, lo, hi,
                [](const Entry& e) { return e.tag == kAttributeRecord; },
                matches, stats);
    return;
  }
  if (attr_root.ok) {
    // The attribute root is checked but yields no value matches; the probe
    // is recorded so a trace's probe count equals visited_nodes.
    stats.visited_nodes += 1;
    this->visit_counts_.Record(attr_root.owner);
    if (this->ProbeObserved()) {
      const auto* dir = this->store_.Find(attr_root.owner);
      obs::OnDirectoryProbe(attr_root.owner, 0, dir ? dir->size() : 0);
    }
  }

  // The value root, then (for ranges) the system-wide value walk.
  const RouteLane<Ring>& value_root = roots[1];
  if (!value_root.result.ok) return;
  const auto value_records = [](const Entry& e) {
    return e.tag == kValueRecord;
  };
  WalkSuccessors(ring_, value_root.result.owner, value_root.key,
                 lph_[sub.attr](hi), stats, [&](NodeAddr cur) {
                   this->Probe(cur, sub.attr, lo, hi, value_records, matches,
                               stats);
                 });
}

// Both record kinds replicate through the one successor-list protocol: an
// attribute record's key is the attribute key and a value record's key is the
// locality-preserving value key, so the shared ring-arc handoff (RingHandoff)
// places each kind correctly without knowing about tags. With replicas > 1 a
// crash loses nothing that survives on the rest of its replica group, and
// the protocol restores both record kinds of every lost range, so the two
// record sets stay in lockstep with no extra work; unreplicated, the
// handoff's OnFail runs ReconcileTwins.

template <typename Ring>
void BasicMaanService<Ring>::ReconcileTwins(NodeAddr node) {
  // Unreplicated, every tuple still exists as two records on (usually) two
  // different nodes. Dropping the crashed node's directory alone leaves the
  // surviving twins behind: value records whose attribute record died make
  // the classic path and the planned path (which answers dominated
  // sub-queries from attribute records) disagree forever after a crash.
  // Walk the lost records and re-synchronize both sets.
  auto& store = this->store_;
  const auto lost = store.TakeAll(node);
  for (const auto& e : lost) {
    if (e.tag == kValueRecord) {
      // The authoritative value record died; retire its attribute-record
      // twin so the attribute root does not advertise a tuple the classic
      // path can no longer find. (If the twin also lived on the crashed
      // node, TakeAll already removed it and this erases nothing.)
      const NodeAddr attr_root =
          ring_.OwnerOfExcluding(AttributeKeyFor(e.info.attr), node);
      if (attr_root == kNoNode) continue;
      store.EraseIf(attr_root, [&](const Entry& t) {
        return t.tag == kAttributeRecord && t.info.attr == e.info.attr &&
               t.ordinal == e.ordinal && t.info.provider == e.info.provider &&
               t.epoch == e.epoch;
      });
    } else {
      // An attribute record died; if its value-record twin survived, rebuild
      // the attribute record at the post-failure attribute root so dominated
      // sub-queries keep seeing exactly what the value walk sees.
      const NodeAddr value_root =
          ring_.OwnerOfExcluding(lph_[e.info.attr](e.ordinal), node);
      if (value_root == kNoNode) continue;
      const auto* dir = store.Find(value_root);
      if (dir == nullptr) continue;
      bool twin_alive = false;
      dir->ForEachMatch(e.info.attr, e.ordinal, e.ordinal,
                        [&](const Entry& t) {
                          if (t.tag == kValueRecord &&
                              t.info.provider == e.info.provider &&
                              t.epoch == e.epoch) {
                            twin_alive = true;
                          }
                        });
      if (!twin_alive) continue;
      const NodeAddr attr_root =
          ring_.OwnerOfExcluding(AttributeKeyFor(e.info.attr), node);
      if (attr_root == kNoNode) continue;
      Entry rebuilt = e;
      rebuilt.replica = 0;
      store.Insert(attr_root, std::move(rebuilt));
    }
  }
}

template class BasicMaanService<chord::ChordRing>;
template class BasicMaanService<singlehop::SingleHopRing>;

}  // namespace lorm::discovery
