#include "discovery/lorm_service.hpp"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

#include "common/error.hpp"
#include "discovery/query_executor.hpp"
#include "discovery/ring_walk.hpp"
#include "obs/flight.hpp"

namespace lorm::discovery {

LormService::LormService(std::size_t n,
                         const resource::AttributeRegistry& registry,
                         Config cfg)
    : DirectoryService("LORM", registry, cfg),
      cfg_(std::move(cfg)),
      net_(cycloid::MakeCycloid(n, cfg_.overlay)) {
  const ConsistentHash ch(cfg_.overlay.dimension);
  attr_cubical_.reserve(registry_.size());
  for (AttrId a = 0; a < registry_.size(); ++a) {
    attr_cubical_.push_back(ch(registry_.Get(a).name()));
  }
  AddRing(net_, this);
}

std::uint64_t LormService::CubicalOf(AttrId attr) const {
  LORM_CHECK_MSG(attr < attr_cubical_.size(), "attribute id out of range");
  return attr_cubical_[attr];
}

unsigned LormService::CyclicOf(AttrId attr, double ordinal) const {
  const auto& schema = registry_.Get(attr);
  double u;
  if (cfg_.value_cdf) {
    u = std::clamp(cfg_.value_cdf(ordinal), 0.0, 1.0);
  } else {
    u = std::clamp((ordinal - schema.ordinal_min()) /
                       (schema.ordinal_max() - schema.ordinal_min()),
                   0.0, 1.0);
  }
  const unsigned d = net_.dimension();
  const auto k = static_cast<unsigned>(u * static_cast<double>(d));
  return std::min(k, d - 1);
}

cycloid::CycloidId LormService::KeyFor(AttrId attr,
                                       const resource::AttrValue& v) const {
  const double ordinal = registry_.Get(attr).OrdinalOf(v);
  return cycloid::CycloidId{CyclicOf(attr, ordinal), CubicalOf(attr)};
}

QueryResult LormService::Query(const resource::MultiQuery& q,
                               QueryScratch& scratch) const {
  return ExecuteQuery(q, scratch, *this);
}

void LormService::ResolveSub(const resource::SubQuery& sub, double lo,
                             double hi, bool /*dominated*/,
                             const RouteLane<cycloid::CycloidNetwork>* roots,
                             Matches& matches, QueryStats& stats) const {
  if (!roots[0].result.ok) return;
  // Visit the root, then walk the small cycle's successors until the cyclic
  // segment [key_lo.k, key_hi.k] is covered (Prop. 3.1: every match lies on
  // that arc). The resumable state machine (ring_walk.hpp) visits the same
  // nodes in the same order as the loop it replaced.
  ClusterWalkState walk;
  ClusterWalkBegin(
      net_, roots[0].result.owner, roots[0].key,
      cycloid::CycloidId{CyclicOf(sub.attr, hi), CubicalOf(sub.attr)}, walk,
      /*live_fallback=*/cfg_.replicas > 1);
  do {
    stats.visited_nodes += 1;
    Probe(walk.cur, sub.attr, lo, hi, kAllEntries, matches, stats);
  } while (ClusterWalkAdvance(net_, walk, stats));
}

void LormService::OnJoin(NodeAddr node,
                         const std::vector<NodeAddr>& possible_sources) {
  if (cfg_.replicas > 1) {
    // Affected clusters: the joiner's own (its copy chains rotate around
    // the new member) and every source's (a join that creates a cluster
    // takes a cubical sector away from the succeeding cluster).
    std::vector<std::uint64_t> cubicals{net_.IdOf(node).a};
    for (NodeAddr src : possible_sources) {
      const std::uint64_t a = net_.IdOf(src).a;
      if (std::find(cubicals.begin(), cubicals.end(), a) == cubicals.end()) {
        cubicals.push_back(a);
      }
    }
    RebuildClusterReplicas({}, cubicals, obs::FlightEventKind::kHandoff, node);
    return;
  }
  for (NodeAddr src : possible_sources) {
    auto moved = store_.TakeIf(src, [&](const Store::Entry& e) {
      return e.replica == 0 && net_.OwnerOf(e.key) == node;
    });
    for (auto& e : moved) store_.Insert(node, std::move(e));
  }
}

void LormService::OnFail(NodeAddr node) {
  // The crashed copies die with the node (FailNode drops its directory).
  // Unreplicated there is no handoff: what it stored is gone until providers
  // re-advertise in a later epoch. Replicated, the rest of its cluster still
  // holds every tuple that had a surviving copy, and the rebuild spreads
  // them back to full replication depth. A whole-cluster crash still loses
  // its attribute's data — cluster replication cannot reach across the
  // cubical dimension.
  if (cfg_.replicas > 1 && net_.ClusterCount() > 0) {
    RebuildClusterReplicas({}, {net_.IdOf(node).a},
                           obs::FlightEventKind::kReplicaRepair, node);
  }
}

void LormService::OnLeave(NodeAddr node) {
  if (cfg_.replicas > 1) {
    const std::uint64_t a = net_.IdOf(node).a;
    auto pool = store_.TakeAll(node);
    if (net_.ClusterCount() > 0) {
      RebuildClusterReplicas(std::move(pool), {a},
                             obs::FlightEventKind::kHandoff, node);
    }
    return;
  }
  auto orphaned = store_.TakeAll(node);
  if (net_.ClusterCount() == 0) return;  // last node left: information is lost
  for (auto& e : orphaned) {
    // Primaries re-home with their key sector; replicas are dropped here and
    // rebuilt by the next soft-state epoch.
    if (e.replica != 0) continue;
    store_.Insert(net_.OwnerOf(e.key), std::move(e));
  }
}

void LormService::RebuildClusterReplicas(
    std::vector<Store::Entry> pool,
    const std::vector<std::uint64_t>& cubicals, obs::FlightEventKind kind,
    NodeAddr node) {
  // Union of the affected clusters' members (distinct cubical values can
  // resolve to the same owner cluster).
  std::vector<NodeAddr> members;
  for (const std::uint64_t a : cubicals) {
    for (NodeAddr m : net_.ClusterMembersOf(a)) {
      if (std::find(members.begin(), members.end(), m) == members.end()) {
        members.push_back(m);
      }
    }
  }
  if (members.empty()) return;

  // Pull every copy the affected clusters hold into the pool, remembering
  // who held which tuple so copies that stay put are not billed as moved.
  // Entries arriving in `pool` came off a departed node, so they have no
  // live prior holder and any placement of them is a real transfer.
  using Identity = std::tuple<AttrId, NodeAddr, double, std::uint64_t>;
  const auto identity_of = [](const Store::Entry& e) {
    return Identity{e.info.attr, e.info.provider, e.ordinal, e.epoch};
  };
  std::map<Identity, std::vector<NodeAddr>> holders;
  for (NodeAddr m : members) {
    auto held = store_.TakeAll(m);
    for (auto& e : held) {
      holders[identity_of(e)].push_back(m);
      pool.push_back(std::move(e));
    }
  }

  // Re-place one copy chain per distinct surviving tuple: the key's owner
  // plus its next replicas-1 live cyclic successors (fewer when the cluster
  // is smaller than the replication factor).
  std::map<Identity, bool> placed;
  std::uint64_t moved = 0;
  for (auto& e : pool) {
    if (!placed.emplace(identity_of(e), true).second) continue;
    const auto h = holders.find(identity_of(e));
    const NodeAddr owner = net_.OwnerOf(e.key);
    NodeAddr target = owner;
    for (std::size_t copy = 0; copy < cfg_.replicas; ++copy) {
      if (copy > 0) {
        target = net_.ClusterSuccessorOf(target);
        if (target == owner) break;  // cluster smaller than the factor
      }
      Store::Entry c = e;
      c.replica = static_cast<std::uint8_t>(copy);
      store_.Insert(target, std::move(c));
      const bool held_before =
          h != holders.end() &&
          std::find(h->second.begin(), h->second.end(), target) !=
              h->second.end();
      if (!held_before) ++moved;
    }
  }
  repl_.RecordMovedEvent(moved, kind, node);
}

}  // namespace lorm::discovery
