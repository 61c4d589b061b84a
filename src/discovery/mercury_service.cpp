#include "discovery/mercury_service.hpp"

#include <memory>
#include <utility>

#include "common/error.hpp"
#include "discovery/query_executor.hpp"
#include "discovery/query_obs.hpp"
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
    hub->AddObserver(observers_.back().get());
    hubs_.push_back(std::move(hub));
  }
  LORM_CHECK_MSG(!hubs_.empty(), "Mercury needs at least one attribute hub");
}

MercuryService::~MercuryService() {
  for (AttrId a = 0; a < hubs_.size(); ++a) {
    hubs_[a]->RemoveObserver(observers_[a].get());
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
  LORM_CHECK_MSG(ring.Contains(info.provider),
                 "provider is not a member of the overlay");
  const chord::Key key = KeyFor(info.attr, info.value);
  const auto res = ring.Lookup(key, info.provider);
  LORM_CHECK_MSG(res.ok, "Mercury advertise lookup failed to route");
  HopCount hops = res.hops;
  NodeAddr target = res.owner;
  for (std::size_t copy = 0; copy < cfg_.replicas; ++copy) {
    if (copy > 0) {
      target = ring.Successor(target);
      if (target == res.owner) break;
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

QueryResult MercuryService::Query(const resource::MultiQuery& q,
                                  QueryScratch& scratch) const {
  return ExecuteQuery(q, scratch,
                      [this](auto&&... args) { ResolveSub(args...); });
}

void MercuryService::ResolveSub(NodeAddr requester,
                                const resource::SubQuery& sub, double lo,
                                double hi, bool /*dominated*/,
                                Matches& matches, QueryStats& stats,
                                QueryScratch& scratch) const {
  const auto& ring = hub(sub.attr);
  const chord::Key key_lo = lph_[sub.attr](lo);
  const chord::Key key_hi = lph_[sub.attr](hi);
  chord::LookupResult& res = scratch.chord;
  if (!Route(ring, key_lo, requester, res, stats)) return;
  WalkSuccessors(ring, res.owner, key_lo, key_hi, stats, [&](NodeAddr cur) {
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
