#include "cycloid/cycloid.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/hashing.hpp"

namespace lorm::cycloid {
namespace {

// Ring-interval membership (modulus-free: pure order comparisons with wrap).
bool InOC(std::uint64_t x, std::uint64_t lo, std::uint64_t hi) {
  if (lo == hi) return true;  // degenerate interval covers the whole ring
  if (lo < hi) return x > lo && x <= hi;
  return x > lo || x <= hi;
}

}  // namespace

CycloidNetwork::CycloidNetwork(Config cfg)
    : Route("unknown cycloid node", cfg.route_cache), cfg_(cfg) {
  if (cfg_.dimension < 2 || cfg_.dimension > 24) {
    throw ConfigError("Cycloid dimension must be in [2, 24]");
  }
  cluster_space_ = std::uint64_t{1} << cfg_.dimension;
}

const CycloidNetwork::Cluster& CycloidNetwork::MustCluster(
    std::uint64_t a) const {
  auto it = clusters_.find(a);
  LORM_CHECK_MSG(it != clusters_.end(), "no cluster at cubical index");
  return it->second;
}

std::uint64_t CycloidNetwork::OwnerClusterCubical(std::uint64_t a) const {
  LORM_CHECK_MSG(!clusters_.empty(), "empty cycloid network");
  auto it = clusters_.lower_bound(a);
  if (it == clusters_.end()) it = clusters_.begin();
  return it->first;
}

CycloidNetwork::Slot CycloidNetwork::OwnerInCluster(const Cluster& c,
                                                    unsigned k) const {
  LORM_CHECK_MSG(!c.empty(), "empty cluster");
  auto it = c.lower_bound(k);
  if (it == c.end()) it = c.begin();
  return it->second;
}

CycloidNetwork::Slot CycloidNetwork::PrimaryOf(const Cluster& c) const {
  LORM_CHECK_MSG(!c.empty(), "empty cluster");
  return c.rbegin()->second;
}

std::uint64_t CycloidNetwork::PrecedingClusterCubical(std::uint64_t a) const {
  LORM_CHECK_MSG(!clusters_.empty(), "empty cycloid network");
  auto it = clusters_.find(a);
  LORM_CHECK(it != clusters_.end());
  if (it == clusters_.begin()) return clusters_.rbegin()->first;
  return std::prev(it)->first;
}

std::uint64_t CycloidNetwork::SucceedingClusterCubical(std::uint64_t a) const {
  LORM_CHECK_MSG(!clusters_.empty(), "empty cycloid network");
  auto it = clusters_.find(a);
  LORM_CHECK(it != clusters_.end());
  ++it;
  if (it == clusters_.end()) it = clusters_.begin();
  return it->first;
}

CycloidId CycloidNetwork::AddNode(NodeAddr addr) {
  const ConsistentHash ch(63);
  std::uint64_t pos =
      ch(static_cast<std::uint64_t>(addr) ^ cfg_.seed) % capacity();
  const std::uint64_t cap = capacity();
  LORM_CHECK_MSG(slab_.size() < cap, "cycloid network full");
  for (;;) {
    const CycloidId id{static_cast<unsigned>(pos % cfg_.dimension),
                       pos / cfg_.dimension};
    const auto cit = clusters_.find(id.a);
    if (cit == clusters_.end() || cit->second.count(id.k) == 0) {
      AddNodeWithId(addr, id);
      return id;
    }
    pos = (pos + 1) % cap;
  }
}

void CycloidNetwork::AddNodeWithId(NodeAddr addr, CycloidId id) {
  if (id.k >= cfg_.dimension || id.a >= cluster_space_) {
    throw ConfigError("cycloid id outside the identifier space");
  }
  if (Contains(addr)) throw ConfigError("node address already in network");
  auto cit = clusters_.find(id.a);
  if (cit != clusters_.end() && cit->second.count(id.k) != 0) {
    throw ConfigError("cycloid position already occupied");
  }

  // Sources whose sectors may shrink: computed against the pre-join state.
  std::vector<NodeAddr> sources;
  if (!slab_.empty()) {
    if (cit != clusters_.end()) {
      // Cluster exists: only the cyclic successor's sector splits.
      sources.push_back(slab_[OwnerInCluster(cit->second, id.k)].addr);
    } else {
      // New cluster: its cubical sector is carved out of every member of
      // the succeeding cluster.
      const std::uint64_t succ_a = OwnerClusterCubical(id.a);
      for (const auto& [k, member] : MustCluster(succ_a)) {
        sources.push_back(slab_[member].addr);
      }
    }
  }

  clusters_[id.a][id.k] = AllocateSlot(addr, id);
  // Join cost: the bootstrap lookup (~d hops) plus the leaf-set repair
  // messages charged inside RepairAround.
  maintenance_.join_messages += cfg_.dimension;
  RepairAround(id.a);
  if (observer_ != nullptr) observer_->OnJoin(addr, sources);
}

void CycloidNetwork::BulkAssign(
    const std::vector<std::pair<NodeAddr, CycloidId>>& members) {
  LORM_CHECK_MSG(slab_.empty(), "BulkAssign requires an empty network");
  LORM_CHECK_MSG(observer_ == nullptr,
                 "BulkAssign does not notify membership observers");
  slab_.reserve(members.size());
  for (const auto& [addr, id] : members) {
    if (id.k >= cfg_.dimension || id.a >= cluster_space_) {
      throw ConfigError("cycloid id outside the identifier space");
    }
    if (Contains(addr)) throw ConfigError("node address already in network");
    auto& cluster = clusters_[id.a];
    if (cluster.count(id.k) != 0) {
      throw ConfigError("cycloid position already occupied");
    }
    cluster[id.k] = AllocateSlot(addr, id);
  }
  StabilizeAll();
}

void CycloidNetwork::RemoveNode(NodeAddr addr) {
  const Slot slot = slab_.MustFind(addr);
  const CycloidId id = slab_[slot].id;
  auto cit = clusters_.find(id.a);
  LORM_CHECK(cit != clusters_.end());
  cit->second.erase(id.k);
  if (cit->second.empty()) clusters_.erase(cit);
  // Notify the inside leaf set and both outside primaries, plus the handoff.
  maintenance_.leave_messages += 5;

  // Observers re-home the departing node's objects via OwnerOf(), which now
  // reflects the post-departure ownership; the node's state is still
  // readable while they run.
  if (observer_ != nullptr) observer_->OnLeave(addr);

  ReleaseSlot(slot);
  if (!clusters_.empty()) RepairAround(id.a);
}

void CycloidNetwork::FailNode(NodeAddr addr) {
  const Slot slot = slab_.MustFind(addr);
  const CycloidId id = slab_[slot].id;
  auto cit = clusters_.find(id.a);
  LORM_CHECK(cit != clusters_.end());
  cit->second.erase(id.k);
  if (cit->second.empty()) clusters_.erase(cit);
  // Observers run after the ownership oracle dropped the node (OwnerOf
  // reflects post-failure ownership, as in RemoveNode) but while its state
  // is still readable — replicated services restore coverage from the
  // surviving copies here.
  if (observer_ != nullptr) observer_->OnFail(addr);
  ReleaseSlot(slot);
  // No repair, no routing handoff: leaf sets pointing at the node go stale
  // until routing skips them and StabilizeAll heals the neighborhood.
}

std::vector<NodeAddr> CycloidNetwork::Members() const {
  std::vector<NodeAddr> out;
  out.reserve(slab_.size());
  for (const auto& [a, cluster] : clusters_) {
    for (const auto& [k, slot] : cluster) out.push_back(slab_[slot].addr);
  }
  return out;
}

NodeAddr CycloidNetwork::OwnerOf(CycloidId key) const {
  const std::uint64_t a = OwnerClusterCubical(key.a % cluster_space_);
  return slab_[OwnerInCluster(MustCluster(a), key.k % cfg_.dimension)].addr;
}

bool CycloidNetwork::ClusterOwnsLocal(const Node& n, std::uint64_t a) const {
  if (n.outside_pred.addr == kNoNode) return true;
  std::uint64_t pred_a;
  const Slot pred_slot = slab_.Resolve(n.outside_pred);
  if (pred_slot == kNoSlot) {
    // The preceding primary failed: adopt the live preceding cluster (the
    // state the next self-organization round converges to).
    ++maintenance_.dead_links_skipped;
    pred_a = PrecedingClusterCubical(n.id.a);  // own cluster always exists
  } else {
    pred_a = slab_[pred_slot].id.a;
  }
  if (pred_a == n.id.a) return true;  // only one cluster exists
  return InOC(a, pred_a, n.id.a);
}

bool CycloidNetwork::OwnsNode(const Node& n, CycloidId key) const {
  if (!ClusterOwnsLocal(n, key.a % cluster_space_)) return false;
  if (n.inside_pred.addr == kNoNode || n.inside_pred.addr == n.addr) {
    return true;
  }
  unsigned pred_k;
  const Slot pred_slot = slab_.Resolve(n.inside_pred);
  if (pred_slot == kNoSlot) {
    // The cyclic predecessor failed: adopt the live one.
    ++maintenance_.dead_links_skipped;
    const Cluster& c = MustCluster(n.id.a);
    auto it = c.find(n.id.k);
    LORM_CHECK(it != c.end());
    pred_k = (it == c.begin()) ? c.rbegin()->first : std::prev(it)->first;
    if (pred_k == n.id.k) return true;  // alone in the cluster
  } else {
    pred_k = slab_[pred_slot].id.k;
  }
  return InOC(key.k % cfg_.dimension, pred_k, n.id.k);
}

NodeAddr CycloidNetwork::ClusterSuccessorOf(NodeAddr addr) const {
  const Node& n = slab_.MustGet(addr);
  const Cluster& c = MustCluster(n.id.a);
  auto it = c.find(n.id.k);
  LORM_CHECK(it != c.end());
  ++it;
  if (it == c.end()) it = c.begin();
  return slab_[it->second].addr;
}

std::vector<NodeAddr> CycloidNetwork::ClusterMembersOf(std::uint64_t a) const {
  const std::uint64_t owner_a = OwnerClusterCubical(a % cluster_space_);
  std::vector<NodeAddr> out;
  for (const auto& [k, slot] : MustCluster(owner_a)) {
    out.push_back(slab_[slot].addr);
  }
  return out;
}

NodeAddr CycloidNetwork::InsideSuccessor(NodeAddr addr) const {
  return slab_.MustGet(addr).inside_succ.addr;
}

NodeAddr CycloidNetwork::InsidePredecessor(NodeAddr addr) const {
  return slab_.MustGet(addr).inside_pred.addr;
}

std::size_t CycloidNetwork::Outlinks(NodeAddr addr) const {
  const Node& n = slab_.MustGet(addr);
  std::vector<NodeAddr> distinct;
  auto consider = [&](const Link& l) {
    if (l.addr == kNoNode || l.addr == addr || slab_.Resolve(l) == kNoSlot) {
      return;
    }
    if (std::find(distinct.begin(), distinct.end(), l.addr) ==
        distinct.end()) {
      distinct.push_back(l.addr);
    }
  };
  consider(n.inside_succ);
  consider(n.inside_pred);
  consider(n.outside_succ);
  consider(n.outside_pred);
  consider(n.cubical);
  consider(n.cyclic_succ);
  consider(n.cyclic_pred);
  return distinct.size();
}

std::vector<NodeAddr> CycloidNetwork::NeighborsOf(NodeAddr addr) const {
  const Node& n = slab_.MustGet(addr);
  std::vector<NodeAddr> out;
  auto consider = [&](const Link& l) {
    if (l.addr == kNoNode || l.addr == addr) return;
    if (std::find(out.begin(), out.end(), l.addr) == out.end()) {
      out.push_back(l.addr);
    }
  };
  consider(n.inside_succ);
  consider(n.inside_pred);
  consider(n.outside_succ);
  consider(n.outside_pred);
  consider(n.cubical);
  consider(n.cyclic_succ);
  consider(n.cyclic_pred);
  return out;
}

void CycloidNetwork::BuildState(Node& n) {
  const unsigned d = cfg_.dimension;
  const Cluster& c = MustCluster(n.id.a);

  // Inside leaf set: cyclic neighbors within the cluster (self when alone).
  {
    auto it = c.find(n.id.k);
    LORM_CHECK(it != c.end());
    auto next = std::next(it);
    n.inside_succ =
        slab_.MakeLink((next == c.end()) ? c.begin()->second : next->second);
    n.inside_pred = slab_.MakeLink(
        (it == c.begin()) ? c.rbegin()->second : std::prev(it)->second);
  }

  const unsigned kb = (n.id.k + d - 1) % d;  // bit flippable from this node

  if (clusters_.size() == 1) {
    const Link primary = slab_.MakeLink(PrimaryOf(c));
    n.outside_succ = primary;
    n.outside_pred = primary;
    n.cyclic_succ = Link{};
    n.cyclic_pred = Link{};
    n.cubical = Link{};
    return;
  }

  const std::uint64_t succ_a = SucceedingClusterCubical(n.id.a);
  const std::uint64_t pred_a = PrecedingClusterCubical(n.id.a);
  n.outside_succ = slab_.MakeLink(PrimaryOf(MustCluster(succ_a)));
  n.outside_pred = slab_.MakeLink(PrimaryOf(MustCluster(pred_a)));
  n.cyclic_succ = slab_.MakeLink(OwnerInCluster(MustCluster(succ_a), kb));
  n.cyclic_pred = slab_.MakeLink(OwnerInCluster(MustCluster(pred_a), kb));

  // Cubical neighbor: cluster with bit kb of the cubical index flipped,
  // bits above kb unchanged, bits below kb don't-care (nearest existing).
  const std::uint64_t flipped = n.id.a ^ (std::uint64_t{1} << kb);
  const std::uint64_t prefix = flipped & ~((std::uint64_t{1} << kb) - 1);
  auto cit = clusters_.find(flipped);
  if (cit == clusters_.end()) {
    cit = clusters_.lower_bound(prefix);
    if (cit == clusters_.end() ||
        cit->first >= prefix + (std::uint64_t{1} << kb)) {
      n.cubical = Link{};
      return;
    }
  }
  n.cubical = slab_.MakeLink(OwnerInCluster(cit->second, kb));
  if (n.cubical.addr == n.addr) n.cubical = Link{};
}

void CycloidNetwork::RepairAround(std::uint64_t a) {
  if (clusters_.empty()) return;
  const std::uint64_t center = OwnerClusterCubical(a % cluster_space_);
  std::vector<std::uint64_t> affected{center, PrecedingClusterCubical(center),
                                      SucceedingClusterCubical(center)};
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());
  for (std::uint64_t cubical : affected) {
    for (const auto& [k, slot] : MustCluster(cubical)) {
      BuildState(slab_[slot]);
      // One leaf-set update message per repaired neighbor. (The in-memory
      // rebuild refreshes the whole 7-entry table for simplicity, but the
      // protocol equivalent is a single notify carrying the change.)
      maintenance_.stabilize_messages += 1;
    }
  }
}

CycloidNetwork::Slot CycloidNetwork::NextHopSlot(const Node& n, CycloidId key,
                                                 bool force_walk) const {
  const unsigned d = cfg_.dimension;
  const std::uint64_t a_t = key.a % cluster_space_;

  if (ClusterOwnsLocal(n, a_t)) {
    if (n.inside_succ.addr == n.addr) return kNoSlot;
    const Slot succ_slot = slab_.Resolve(n.inside_succ);
    if (succ_slot == kNoSlot) {
      // The cyclic successor failed and self-organization has not healed the
      // small cycle yet: the query cannot be forwarded reliably.
      ++maintenance_.dead_links_skipped;
      return kNoSlot;
    }
    // Rotate along the small cycle toward the owner. When the neighborhood
    // is locally contiguous (both cyclic neighbors exist at k +- 1), take
    // the shorter direction. In a cluster with holes, nodes can disagree on
    // direction and bounce; force_walk pins the rotation to successor-only,
    // which is bounded by the cluster size and always reaches the owner.
    if (!force_walk) {
      const Slot pred_slot = slab_.Resolve(n.inside_pred);
      if (pred_slot != kNoSlot) {
        const unsigned k = n.id.k;
        const bool contiguous =
            slab_[succ_slot].id.k == (k + 1) % d &&
            slab_[pred_slot].id.k == (k + d - 1) % d;
        if (contiguous) {
          const unsigned fwd = (key.k + d - k) % d;
          const unsigned bwd = (k + d - key.k) % d;
          if (bwd < fwd) return pred_slot;
        }
      }
    }
    return succ_slot;
  }

  if (!force_walk) {
    const std::uint64_t x = n.id.a ^ a_t;
    const unsigned kb = (n.id.k + d - 1) % d;
    // Flip the bit reachable from this cyclic position if it differs; the
    // cubical XOR distance strictly decreases.
    if (((x >> kb) & 1u) != 0 && n.cubical.addr != kNoNode) {
      const Slot cub = slab_.Resolve(n.cubical);
      if (cub != kNoSlot) return cub;
    }
    // Otherwise rotate downward (k-1) and try the next bit; one lap of the
    // small cycle visits every bit position.
    if (n.inside_pred.addr != n.addr) {
      const Slot pred_slot = slab_.Resolve(n.inside_pred);
      if (pred_slot != kNoSlot) return pred_slot;
      ++maintenance_.dead_links_skipped;
    }
  }

  // Guaranteed fallback: walk the large cycle one cluster per hop toward the
  // target cluster, preferring the cyclic neighbor (already near the right
  // cyclic position), then the outside leaf set.
  const std::uint64_t fwd = (a_t - n.id.a) & (cluster_space_ - 1);
  const std::uint64_t bwd = (n.id.a - a_t) & (cluster_space_ - 1);
  const bool forward = fwd <= bwd;
  const Link& first = forward ? n.cyclic_succ : n.cyclic_pred;
  const Link& second = forward ? n.outside_succ : n.outside_pred;
  if (first.addr != kNoNode && first.addr != n.addr) {
    const Slot s = slab_.Resolve(first);
    if (s != kNoSlot) return s;
  }
  if (second.addr != kNoNode && second.addr != n.addr) {
    const Slot s = slab_.Resolve(second);
    if (s != kNoSlot) return s;
  }
  // Last resort (heavy churn): any live neighbor that leaves the cluster.
  const Link& third = forward ? n.outside_pred : n.outside_succ;
  if (third.addr != kNoNode && third.addr != n.addr) {
    const Slot s = slab_.Resolve(third);
    if (s != kNoSlot) return s;
  }
  if (n.inside_succ.addr != n.addr) {
    const Slot s = slab_.Resolve(n.inside_succ);
    if (s != kNoSlot) return s;
  }
  ++maintenance_.dead_links_skipped;
  return kNoSlot;
}

void CycloidNetwork::BeginWalk(LookupState& st) const {
  st.structured_cap = 4 * cfg_.dimension + 8;
  st.max_hops =
      st.structured_cap + 2 * clusters_.size() + 2 * cfg_.dimension + 16;
  // Sticky fallback mode: engaged when the structured budget is spent or an
  // immediate backtrack is detected (stateless greedy steps returning to the
  // previous node would cycle forever in a churn-degraded neighborhood).
  st.walk_mode = false;
  st.prev = kNoSlot;
}

bool CycloidNetwork::StepOnce(LookupState& st, LookupResult& r) const {
  if (OwnsNode(slab_[st.cur], r.key)) return Arrive(st, r);
  const Slot from = st.cur;
  if (Shortcut(st, r)) {
    st.prev = from;
    return true;
  }
  const Node& n = slab_[st.cur];
  st.walk_mode = st.walk_mode || r.hops >= st.structured_cap;
  Slot next = NextHopSlot(n, r.key, st.walk_mode);
  if (!st.walk_mode && st.prev != kNoSlot && next == st.prev) {
    st.walk_mode = true;
    next = NextHopSlot(n, r.key, /*force_walk=*/true);
  }
  if (next == kNoSlot || next == st.cur) return false;  // routing dead end
  st.prev = st.cur;
  Hop(st, r, next, slab_[next].addr);
  return r.hops <= st.max_hops;  // past the cap, ok stays false
}

void CycloidNetwork::LookupPrefetch(const LookupState& st) const {
  if (st.done) return;
  // The whole node is inline (id + 7 links, ~4 lines). Prefetching the link
  // targets as well, one round-robin visit per extra stage, measured no
  // faster at any n (DESIGN.md §6).
  const char* base = reinterpret_cast<const char*>(&slab_[st.cur]);
  __builtin_prefetch(base, 0, 3);
  __builtin_prefetch(base + 64, 0, 3);
  __builtin_prefetch(base + 128, 0, 3);
  __builtin_prefetch(base + 192, 0, 3);
}

void CycloidNetwork::StabilizeAll() {
  for (Slot s = 0; s < slab_.slot_count(); ++s) {
    if (slab_[s].addr == kNoNode) continue;  // vacated slot
    BuildState(slab_[s]);
    maintenance_.stabilize_messages += 7;
  }
}

std::size_t CycloidNetwork::ApproxMemoryBytes() const {
  std::size_t bytes = slab_.MemoryBytes();
  // std::map node estimate: payload plus three tree pointers + color.
  const std::size_t map_node = 4 * sizeof(void*);
  bytes += clusters_.size() * (sizeof(std::pair<std::uint64_t, Cluster>) +
                               map_node);
  return bytes;
}

CycloidNetwork MakeCycloid(std::size_t n, Config cfg, NodeAddr base_addr) {
  CycloidNetwork net(cfg);
  const std::uint64_t cap = net.capacity();
  if (n > cap) throw ConfigError("more nodes than cycloid capacity");
  if (n == 0) return net;
  std::vector<std::pair<NodeAddr, CycloidId>> members;
  members.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Proportional placement over the d * 2^d positions (see MakeRing).
    const auto pos = static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(i) * cap / n);
    members.push_back({static_cast<NodeAddr>(base_addr + i),
                       CycloidId{static_cast<unsigned>(pos % cfg.dimension),
                                 pos / cfg.dimension}});
  }
  net.BulkAssign(members);
  return net;
}

unsigned DimensionFor(std::size_t n) {
  for (unsigned d = 2; d <= 24; ++d) {
    if (static_cast<std::uint64_t>(d) * (std::uint64_t{1} << d) >= n) return d;
  }
  throw ConfigError("network too large for cycloid dimensions <= 24");
}

}  // namespace lorm::cycloid

namespace lorm {
template class RingRoute<cycloid::CycloidNetwork, cycloid::CycloidNode,
                         cycloid::MembershipObserver,
                         std::allocator<cycloid::CycloidNode>,
                         cycloid::CycloidWalk>;
}  // namespace lorm
