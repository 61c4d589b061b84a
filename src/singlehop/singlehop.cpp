#include "singlehop/singlehop.hpp"

#include "common/error.hpp"

namespace lorm::singlehop {

SingleHopRing::SingleHopRing(Config cfg)
    : Route("unknown single-hop node", /*route_cache=*/false), cfg_(cfg) {
  LORM_CHECK_MSG(cfg_.bits >= 1 && cfg_.bits < 64,
                 "single-hop ring bits must be in [1, 63]");
  space_ = std::uint64_t{1} << cfg_.bits;
}

Key SingleHopRing::AddNode(NodeAddr addr) {
  const Key id = chord::JoinerId(oracle_, addr, cfg_.bits, cfg_.seed);
  AddNodeWithId(addr, id);
  return id;
}

void SingleHopRing::AddNodeWithId(NodeAddr addr, Key id) {
  LORM_CHECK_MSG(id < space_, "single-hop id outside the identifier space");
  if (Contains(addr)) throw ConfigError("node address already in ring");
  if (oracle_.Contains(id)) throw ConfigError("single-hop id collision");

  const bool first = slab_.empty();
  // Every existing member's view gains this entry: one EDRA event report
  // per member, plus the joiner's bootstrap lookup and bulk table transfer
  // (one message — the table rides in one stream).
  maintenance_.join_messages += slab_.size() + 2;
  const Slot self_slot = AllocateSlot(addr, id);
  oracle_.Insert(id, self_slot);
  SpliceNeighbors(self_slot);
  if (observer_ == nullptr) return;
  observer_->OnJoin(
      addr, first ? addr : slab_[oracle_[oracle_.SuccessorIndex(id)].slot].addr);
}

void SingleHopRing::BulkAssign(
    const std::vector<std::pair<NodeAddr, Key>>& members) {
  LORM_CHECK_MSG(slab_.empty(), "BulkAssign requires an empty ring");
  LORM_CHECK_MSG(observer_ == nullptr,
                 "BulkAssign does not notify membership observers");
  slab_.reserve(members.size());
  oracle_.reserve(members.size());
  for (const auto& [addr, id] : members) {
    LORM_CHECK_MSG(id < space_, "single-hop id outside the identifier space");
    if (Contains(addr)) throw ConfigError("node address already in ring");
    oracle_.Append(id, AllocateSlot(addr, id));
  }
  if (!oracle_.SortDistinct()) throw ConfigError("single-hop id collision");
  StabilizeAll();
}

void SingleHopRing::RemoveNode(NodeAddr addr) {
  const Slot self_slot = slab_.MustFind(addr);
  const Node& n = slab_[self_slot];
  const bool last = slab_.size() == 1;
  // One departure report per surviving member, plus the key handoff.
  maintenance_.leave_messages += (slab_.size() - 1) + 1;
  const NodeAddr succ =
      last ? kNoNode : slab_[oracle_[oracle_.SuccessorIndex(n.id)].slot].addr;
  if (observer_ != nullptr) observer_->OnLeave(addr, succ);

  oracle_.Erase(n.id);
  ReleaseSlot(self_slot);
  if (!last) SpliceNeighbors(slab_.MustFind(succ));
}

void SingleHopRing::FailNode(NodeAddr addr) {
  const Slot self_slot = slab_.MustFind(addr);
  links_fresh_ = false;  // neighbor links to the vacated slot go stale
  if (observer_ != nullptr) observer_->OnFail(addr);
  // Nothing is charged now — nobody has been told. The detection +
  // dissemination bill lands on the next maintenance window.
  ++pending_fail_events_;
  oracle_.Erase(slab_[self_slot].id);
  ReleaseSlot(self_slot);
}

NodeAddr SingleHopRing::OwnerOf(Key key) const {
  const Slot s = oracle_.OwnerSlot(key & (space_ - 1));
  return s == kNoSlot ? kNoNode : slab_[s].addr;
}

NodeAddr SingleHopRing::OwnerOfExcluding(Key key, NodeAddr excluded) const {
  return oracle_.OwnerOfExcluding(slab_, key & (space_ - 1), excluded);
}

NodeAddr SingleHopRing::NthOracleSuccessor(NodeAddr addr, std::size_t steps,
                                           NodeAddr excluded) const {
  return oracle_.NthSuccessor(slab_, addr, steps, excluded);
}

NodeAddr SingleHopRing::NthOraclePredecessor(NodeAddr addr, std::size_t steps,
                                             NodeAddr excluded) const {
  return oracle_.NthPredecessor(slab_, addr, steps, excluded);
}

NodeAddr SingleHopRing::Successor(NodeAddr addr) const {
  return slab_[SuccessorSlot(slab_.MustFind(addr))].addr;
}

NodeAddr SingleHopRing::Predecessor(NodeAddr addr) const {
  const Node& n = slab_.MustGet(addr);
  const Slot s = slab_.Resolve(n.predecessor);
  if (s != kNoSlot) return slab_[s].addr;
  maintenance_.dead_links_skipped += 1;
  return slab_[oracle_[oracle_.Prev(oracle_.IndexOf(n.id))].slot].addr;
}

bool SingleHopRing::OwnsNode(const Node& n, Key key) const {
  if (oracle_.size() == 1) return true;
  const Key pred_id = oracle_[oracle_.Prev(oracle_.IndexOf(n.id))].id;
  return chord::InIntervalOC(key & (space_ - 1), pred_id, n.id);
}

std::size_t SingleHopRing::Outlinks(NodeAddr addr) const {
  slab_.MustFind(addr);  // membership check
  return slab_.size() - 1;
}

std::vector<NodeAddr> SingleHopRing::FullViewOf(NodeAddr addr) const {
  std::size_t idx = oracle_.IndexOf(slab_.MustGet(addr).id);
  std::vector<NodeAddr> out;
  out.reserve(oracle_.size());
  for (std::size_t i = 0; i < oracle_.size(); ++i, idx = oracle_.Next(idx)) {
    out.push_back(slab_[oracle_[idx].slot].addr);
  }
  return out;
}

// ---- Routing --------------------------------------------------------------

bool SingleHopRing::StepOnce(LookupState& st, LookupResult& r) const {
  // The full table names the owner directly: zero hops when the origin
  // owns the key itself, one hop otherwise.
  const Slot owner = oracle_.OwnerSlot(r.key);
  if (owner == kNoSlot) return false;
  if (owner != st.cur) Hop(st, r, owner, slab_[owner].addr);
  return Arrive(st, r);
}

void SingleHopRing::LookupPrefetch(const LookupState& st) const {
  if (st.done || st.cur == kNoSlot) return;
  __builtin_prefetch(&slab_[st.cur]);
}

// ---- Maintenance ----------------------------------------------------------

void SingleHopRing::SpliceNeighbors(Slot slot) {
  Node& n = slab_[slot];
  const std::size_t idx = oracle_.IndexOf(n.id);
  const Slot succ = oracle_[oracle_.Next(idx)].slot;
  const Slot pred = oracle_[oracle_.Prev(idx)].slot;
  n.successor = slab_.MakeLink(succ);
  n.predecessor = slab_.MakeLink(pred);
  slab_[pred].successor = slab_.MakeLink(slot);
  slab_[succ].predecessor = slab_.MakeLink(slot);
}

void SingleHopRing::StabilizeAll() {
  // EDRA window: every crash since the last round is detected by its
  // heartbeat peer and its event report reaches every live member; one
  // heartbeat ping per node keeps detection running even in quiet rounds.
  maintenance_.stabilize_messages +=
      pending_fail_events_ * oracle_.size() + oracle_.size();
  pending_fail_events_ = 0;
  for (std::size_t i = 0; i < oracle_.size(); ++i) {
    const Slot next = oracle_[oracle_.Next(i)].slot;
    slab_[oracle_[i].slot].successor = slab_.MakeLink(next);
    slab_[next].predecessor = slab_.MakeLink(oracle_[i].slot);
  }
  links_fresh_ = true;
}

std::size_t SingleHopRing::ApproxMemoryBytes() const {
  return slab_.MemoryBytes() + oracle_.MemoryBytes();
}

SingleHopRing MakeSingleHopRing(std::size_t n, Config cfg,
                                bool deterministic_ids, NodeAddr base_addr) {
  SingleHopRing ring(cfg);
  ring.BulkAssign(chord::InitialIds(n, cfg.bits, cfg.seed, deterministic_ids,
                                    base_addr));
  return ring;
}

}  // namespace lorm::singlehop

namespace lorm {
template class RingRoute<singlehop::SingleHopRing, singlehop::SingleHopNode,
                         singlehop::MembershipObserver>;
}  // namespace lorm
