#include "discovery/mercury_service.hpp"

#include <memory>
#include <utility>

#include "common/error.hpp"
#include "discovery/query_executor.hpp"
#include "discovery/ring_walk.hpp"
#include "obs/flight.hpp"

namespace lorm::discovery {

MercuryService::MercuryService(std::size_t n,
                               const resource::AttributeRegistry& registry,
                               Config cfg)
    : DirectoryService("Mercury", registry, cfg.result_cache, cfg.plan),
      cfg_(cfg) {
  hubs_.reserve(registry_.size());
  observers_.reserve(registry_.size());
  lph_.reserve(registry_.size());
  for (AttrId a = 0; a < registry_.size(); ++a) {
    chord::Config ring_cfg = cfg_.ring;
    // Distinct seed per hub: a node sits at independent positions in each.
    ring_cfg.seed = MixHashes(cfg_.ring.seed, a);
    auto hub = std::make_unique<chord::ChordRing>(
        chord::MakeRing(n, ring_cfg, cfg_.deterministic_ids));
    const auto& schema = registry_.Get(a);
    lph_.emplace_back(cfg_.ring.bits, schema.ordinal_min(),
                      schema.ordinal_max());
    observers_.push_back(std::make_unique<HubObserver>(this, a));
    hub->SetObserver(observers_.back().get());
    hubs_.push_back(std::move(hub));
  }
  LORM_CHECK_MSG(!hubs_.empty(), "Mercury needs at least one attribute hub");
}

const chord::ChordRing& MercuryService::hub(AttrId attr) const {
  LORM_CHECK_MSG(attr < hubs_.size(), "attribute id out of range");
  return *hubs_[attr];
}

chord::Key MercuryService::KeyFor(AttrId attr,
                                  const resource::AttrValue& v) const {
  return lph_[attr](registry_.Get(attr).OrdinalOf(v));
}

bool MercuryService::JoinNode(NodeAddr addr) {
  if (hubs_.front()->size() >= hubs_.front()->space()) return false;
  for (auto& hub : hubs_) hub->AddNode(addr);
  // One flight event per membership change, not per hub.
  RecordMembership(obs::FlightEventKind::kJoin, addr);
  return true;
}

void MercuryService::LeaveNode(NodeAddr addr) {
  RecordMembership(obs::FlightEventKind::kLeave, addr);
  for (auto& hub : hubs_) hub->RemoveNode(addr);
  store_.Drop(addr);  // per-hub handlers already moved everything out
}

bool MercuryService::HasNode(NodeAddr addr) const {
  return hubs_.front()->Contains(addr);
}

std::size_t MercuryService::NetworkSize() const {
  return hubs_.front()->size();
}

std::vector<NodeAddr> MercuryService::Nodes() const {
  return hubs_.front()->Members();
}

void MercuryService::Maintain() {
  for (auto& hub : hubs_) hub->StabilizeAll();
}

void MercuryService::FailNode(NodeAddr addr) {
  RecordMembership(obs::FlightEventKind::kCrash, addr);
  for (auto& hub : hubs_) hub->FailNode(addr);
  // Replicated hubs restore their own attribute's entries from surviving
  // copies hub by hub; whatever is left on the crashed node dies with it.
  store_.Drop(addr);
}

std::uint64_t MercuryService::MaintenanceMessages() const {
  std::uint64_t total = 0;
  for (const auto& hub : hubs_) total += hub->maintenance().Total();
  return total;
}

HopCount MercuryService::Advertise(const resource::ResourceInfo& info) {
  const auto& ring = hub(info.attr);
  HopCount hops = 0;
  const bool placed =
      Place(ring, info, KeyFor(info.attr, info.value), /*tag=*/0,
            cfg_.replicas, [&ring](NodeAddr a) { return ring.Successor(a); },
            hops);
  LORM_CHECK_MSG(placed, "Mercury advertise lookup failed to route");
  return Advertised(info.attr, hops);
}

QueryResult MercuryService::Query(const resource::MultiQuery& q,
                                  QueryScratch& scratch) const {
  return ExecuteQuery<chord::ChordRing>(q, scratch, *this);
}

void MercuryService::ResolveSub(const resource::SubQuery& sub, double lo,
                                double hi, bool /*dominated*/,
                                const RootLane<chord::ChordRing>* roots,
                                Matches& matches, QueryStats& stats) const {
  const RootLane<chord::ChordRing>& root = roots[0];
  if (!root.result.ok) return;
  WalkSuccessors(*root.ring, root.result.owner, root.key, lph_[sub.attr](hi),
                 stats, [&](NodeAddr cur) {
                   Probe(cur, sub.attr, lo, hi, kAllEntries, matches, stats);
                 });
}

std::vector<double> MercuryService::OutlinkCounts() const {
  std::vector<double> out;
  for (NodeAddr addr : Nodes()) {
    std::size_t links = 0;
    for (const auto& hub : hubs_) links += hub->Outlinks(addr);
    out.push_back(static_cast<double>(links));
  }
  return out;
}

void MercuryService::HubObserver::OnFail(NodeAddr node) {
  svc_->HubFail(attr_, node);
}

void MercuryService::HubObserver::OnJoin(NodeAddr node, NodeAddr successor) {
  svc_->HubJoin(attr_, node, successor);
}

void MercuryService::HubObserver::OnLeave(NodeAddr node, NodeAddr successor) {
  svc_->HubLeave(attr_, node, successor);
}

// Each hub hands off over its own ring, touching only its own attribute's
// entries in the shared store.
namespace {
auto OfAttr(AttrId attr) {
  return [attr](const auto& e) { return e.info.attr == attr; };
}
}  // namespace

void MercuryService::HubJoin(AttrId attr, NodeAddr node, NodeAddr successor) {
  result_cache_.InvalidateAll();  // the join re-homed part of some hub arc
  RingJoinHandoff(hub(attr), store_, cfg_.replicas, node, successor, repl_,
                  OfAttr(attr));
}

void MercuryService::HubLeave(AttrId attr, NodeAddr node, NodeAddr successor) {
  result_cache_.InvalidateAll();
  // LeaveNode drops the emptied directory once every hub has run.
  RingLeaveHandoff(hub(attr), store_, cfg_.replicas, node, successor, repl_,
                   OfAttr(attr));
}

void MercuryService::HubFail(AttrId attr, NodeAddr node) {
  result_cache_.InvalidateAll();
  if (cfg_.replicas > 1) {
    // Restore this attribute's lost ranges from their surviving hub copies;
    // FailNode drops the crashed node's directory after every hub ran.
    ChordReplicaFail(hub(attr), store_, cfg_.replicas, node, repl_,
                     OfAttr(attr));
    return;
  }
  // Fired once per hub; dropping the directory is idempotent.
  store_.Drop(node);
}

}  // namespace lorm::discovery
