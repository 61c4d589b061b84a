#include "chord/chord.hpp"

#if defined(__linux__)
#include <sys/mman.h>
// Kernel 6.1+ supports synchronous THP collapse; older glibc headers
// (< 2.38) just don't expose the constant. The value is kernel ABI.
#ifndef MADV_COLLAPSE
#define MADV_COLLAPSE 25
#endif
#endif

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <array>
#include <unordered_set>

#include "common/error.hpp"
#include "common/hashing.hpp"
#include "common/random.hpp"

namespace lorm::chord {

namespace {

int ScanFingerIdsScalar(const Key* ids, std::size_t count, Key lo, Key hi) {
  for (std::size_t i = count; i-- > 0;) {
    if (InIntervalOO(ids[i], lo, hi)) return static_cast<int>(i);
  }
  return -1;
}

#if defined(__x86_64__)
/// Four-wide version of the scalar scan. Identifier-space keys fit in 63
/// bits (the ring caps bits at 63), so signed 64-bit compares order the
/// same as unsigned ones. `wrapped` folds the lo==hi case correctly:
/// (x > lo || x < lo) == (x != lo), matching InIntervalOO.
__attribute__((target("avx2"))) int ScanFingerIdsAvx2(const Key* ids,
                                                      std::size_t count,
                                                      Key lo, Key hi) {
  const bool wrapped = lo >= hi;
  const __m256i vlo = _mm256_set1_epi64x(static_cast<long long>(lo));
  const __m256i vhi = _mm256_set1_epi64x(static_cast<long long>(hi));
  std::size_t i = count;
  while (i >= 4) {
    i -= 4;
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ids + i));
    const __m256i gt = _mm256_cmpgt_epi64(v, vlo);
    const __m256i lt = _mm256_cmpgt_epi64(vhi, v);
    const __m256i m =
        wrapped ? _mm256_or_si256(gt, lt) : _mm256_and_si256(gt, lt);
    const unsigned mask =
        static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(m)));
    if (mask != 0) return static_cast<int>(i) + 31 - __builtin_clz(mask);
  }
  return ScanFingerIdsScalar(ids, i, lo, hi);
}
#endif

/// Highest index i < count with ids[i] inside the open ring interval
/// (lo, hi) — the closest-preceding-finger scan — or -1 if none.
inline int ScanFingerIds(const Key* ids, std::size_t count, Key lo, Key hi) {
#if defined(__x86_64__)
  static const bool kHaveAvx2 = __builtin_cpu_supports("avx2") != 0;
  if (kHaveAvx2) return ScanFingerIdsAvx2(ids, count, lo, hi);
#endif
  return ScanFingerIdsScalar(ids, count, lo, hi);
}

}  // namespace

ChordRing::ChordRing(Config cfg)
    : KeyedRing(cfg, "unknown chord node", cfg.route_cache) {
  if (cfg_.successor_list == 0) {
    throw ConfigError("ChordRing successor list must be non-empty");
  }
  if (cfg_.successor_list > 0xffff) {
    throw ConfigError("ChordRing successor list exceeds the u16 slab count");
  }
  link_stride_ = cfg_.bits + cfg_.successor_list;
  // Reserved here so that the first join or leave after a build does not
  // grow them: on a cold heap that cost ~1 µs per ring (standalone, 40
  // rings of 384), which Mercury pays once per hub.
  moved_arcs_.reserve(8);
  repointed_.reserve(8);
}

ChordRing::Slot ChordRing::AllocateSlot(NodeAddr addr, Key id) {
  const Slot s = Route::AllocateSlot(addr, id);
  links_.resize(slab_.slot_count() * link_stride_);
  finger_ids_.resize(slab_.slot_count() * cfg_.bits);
  return s;
}

Key ChordRing::FingerStart(Key id, unsigned i) const {
  return (id + (std::uint64_t{1} << i)) & (space_ - 1);
}

void ChordRing::JoinAt(NodeAddr addr, Key id) {
  // Joining splices neighbors but leaves remote finger tables stale.
  links_fresh_ = false;
  const bool first = slab_.empty();
  const Slot self_slot = AllocateSlot(addr, id);
  const std::size_t pos = oracle_.Insert(id, self_slot);
  NoteMovedArc(pos, oracle_.size() - 1);

  if (first) {
    Node& n = slab_[self_slot];
    const SlotRef self_ref = slab_.MakeRef(self_slot);
    n.predecessor = slab_.MakeLink(self_slot);
    SlotSuccessors(self_slot)[0] = self_ref;
    n.succ_count = 1;
    SyncSucc0(n);
    SlotRef* fingers = SlotFingers(self_slot);
    Key* fids = SlotFingerIds(self_slot);
    for (unsigned i = 0; i < cfg_.bits; ++i) {
      fingers[i] = self_ref;
      fids[i] = id;
    }
    n.finger_count = static_cast<std::uint16_t>(cfg_.bits);
    maintenance_.join_messages += 1;  // bootstrap announcement
    if (observer_ != nullptr) observer_->OnJoin(addr, addr);
    return;
  }

  // Splice into the successor/predecessor ring (the protocol's join+notify
  // step, done atomically because departures here are graceful).
  Node& self = slab_[self_slot];
  // Routes through the oracle, which already includes us.
  BuildFingers(self);
  BuildSuccessors(self, pos);
  // Join cost: the bootstrap lookup (~log n hops), one message per table
  // entry built, and the two notify messages below.
  maintenance_.join_messages +=
      cfg_.bits / 2 + self.finger_count + self.succ_count + 2;
  const Slot succ_slot = slab_.Resolve(SlotSuccessors(self_slot)[0]);
  Node& s = slab_[succ_slot];
  const NodeAddr succ = s.addr;
  const Link pred = s.predecessor;
  self.predecessor = pred;
  s.predecessor = slab_.MakeLink(self_slot);
  if (pred.addr != kNoNode && pred.addr != addr) {
    // A crashed, not-yet-repaired predecessor has no successor link to
    // splice: the joiner keeps the stale link, which OwnsNode resolves to the
    // closest live predecessor until the next StabilizeAll repairs both.
    const Slot pred_slot = slab_.Resolve(pred);
    if (pred_slot != kNoSlot) {
      Node& p = slab_[pred_slot];
      SlotSuccessors(pred_slot)[0] = slab_.MakeRef(self_slot);
      if (p.succ_count == 0) p.succ_count = 1;
      SyncSucc0(p);
    }
  }
  if (observer_ != nullptr) observer_->OnJoin(addr, succ);
}

void ChordRing::BulkAssign(
    const std::vector<std::pair<NodeAddr, Key>>& members) {
  links_.reserve(members.size() * link_stride_);
  finger_ids_.reserve(members.size() * cfg_.bits);
  // The closing round rebuilds every link, whatever the ring saw before.
  moved_arcs_.clear();
  repointed_.clear();
  sweep_pending_ = true;
  KeyedRing::BulkAssign(members);
  CollapseSlabs();
}

void ChordRing::RemoveNode(NodeAddr addr) {
  const Slot self_slot = slab_.MustFind(addr);
  links_fresh_ = false;  // links to the vacated slot go stale
  Node& n = slab_[self_slot];
  const bool last = slab_.size() == 1;
  const Slot succ_slot =
      last ? kNoSlot : FirstLiveSuccessorSlotExcept(n, addr);
  const NodeAddr succ = succ_slot == kNoSlot ? kNoNode : slab_[succ_slot].addr;
  // Two notify messages (pred, succ) plus the key-handoff transfer.
  maintenance_.leave_messages += 3;
  if (observer_ != nullptr) observer_->OnLeave(addr, succ);

  if (!last) {
    const Link pred = n.predecessor;
    Node& s = slab_[succ_slot];
    NoteRepointed(succ_slot);
    if (pred.addr != kNoNode && pred.addr != addr) {
      s.predecessor = pred;
      // A crashed predecessor has nothing to splice (see JoinAt).
      const Slot pred_slot = slab_.Resolve(pred);
      if (pred_slot != kNoSlot) {
        Node& p = slab_[pred_slot];
        if (p.succ_count != 0 && SlotSuccessors(pred_slot)[0].addr == addr) {
          SlotSuccessors(pred_slot)[0] = slab_.MakeRef(succ_slot);
        }
      }
    } else {
      s.predecessor = slab_.MakeLink(succ_slot);  // degenerate two-node case
    }
  }
  const std::size_t pos = oracle_.IndexOf(n.id);
  NoteMovedArc(pos, oracle_.size());
  oracle_.EraseAt(pos);
  ReleaseSlot(self_slot);
}

void ChordRing::FailNode(NodeAddr addr) {
  const Slot self_slot = slab_.MustFind(addr);
  links_fresh_ = false;  // links to the vacated slot go stale
  if (observer_ != nullptr) observer_->OnFail(addr);
  // No splice, no handoff: neighbors discover the failure lazily.
  const std::size_t pos = oracle_.IndexOf(slab_[self_slot].id);
  NoteMovedArc(pos, oracle_.size());
  oracle_.EraseAt(pos);
  ReleaseSlot(self_slot);
}

NodeAddr ChordRing::Predecessor(NodeAddr addr) const {
  return slab_.MustGet(addr).predecessor.addr;
}

bool ChordRing::OwnsNode(const Node& n, Key key) const {
  if (n.predecessor.addr == kNoNode || n.predecessor.addr == n.addr) {
    return true;
  }
  if (links_fresh_) {
    // The predecessor link is current by invariant: slab_.Resolve would
    // return its slot, whose id equals the cached one — skip both derefs.
    return InIntervalOC(key, n.predecessor.id, n.id);
  }
  const Slot pred_slot = slab_.Resolve(n.predecessor);
  Key pred_id;
  if (pred_slot == kNoSlot) {
    // The predecessor failed: the failure detector fires and the node adopts
    // the closest live predecessor — the state the next stabilization round
    // converges to. (Claiming the whole ring here would terminate lookups at
    // the wrong owner.)
    ++maintenance_.dead_links_skipped;
    pred_id = oracle_[oracle_.Prev(oracle_.IndexOf(n.id))].id;
    if (pred_id == n.id) return true;  // alone in the ring
  } else {
    pred_id = slab_[pred_slot].id;
  }
  return InIntervalOC(key, pred_id, n.id);
}

namespace {

/// Counts the distinct addresses in buf[0..count): sort + unique on the
/// caller's stack buffer. The previous per-entry std::find dedup was O(k^2)
/// in the routing-table size and dominated Fig 3(a)'s measurement loop.
std::size_t CountDistinct(NodeAddr* buf, std::size_t count) {
  std::sort(buf, buf + count);
  return static_cast<std::size_t>(std::unique(buf, buf + count) - buf);
}

}  // namespace

std::size_t ChordRing::Outlinks(NodeAddr addr) const {
  const Node& n = slab_.MustGet(addr);
  const Slot slot = slab_.SlotOf(n);
  const std::size_t cap = n.finger_count + n.succ_count + 1;
  std::array<NodeAddr, 128> stack;
  std::vector<NodeAddr> heap;  // only for oversized successor-list configs
  NodeAddr* buf = stack.data();
  if (cap > stack.size()) {
    heap.resize(cap);
    buf = heap.data();
  }
  std::size_t count = 0;
  auto consider = [&](const SlotRef& l) {
    if (l.addr != kNoNode && l.addr != addr && slab_.Resolve(l) != kNoSlot) {
      buf[count++] = l.addr;
    }
  };
  const SlotRef* fingers = SlotFingers(slot);
  const SlotRef* succs = SlotSuccessors(slot);
  for (std::size_t i = 0; i < n.finger_count; ++i) consider(fingers[i]);
  for (std::size_t i = 0; i < n.succ_count; ++i) consider(succs[i]);
  consider(n.predecessor);
  return CountDistinct(buf, count);
}

std::size_t ChordRing::FingerTableSize(NodeAddr addr) const {
  const Node& n = slab_.MustGet(addr);
  std::array<NodeAddr, 64> buf;  // bits <= 63 fingers, always fits
  std::size_t count = 0;
  const SlotRef* fingers = SlotFingers(slab_.SlotOf(n));
  for (std::size_t i = 0; i < n.finger_count; ++i) {
    const SlotRef& f = fingers[i];
    if (f.addr != kNoNode && f.addr != addr && slab_.Resolve(f) != kNoSlot) {
      buf[count++] = f.addr;
    }
  }
  return CountDistinct(buf.data(), count);
}

std::vector<NodeAddr> ChordRing::NeighborsOf(NodeAddr addr) const {
  const Node& n = slab_.MustGet(addr);
  std::vector<NodeAddr> out;
  auto consider = [&](NodeAddr a) {
    if (a == kNoNode || a == addr) return;
    if (std::find(out.begin(), out.end(), a) == out.end()) out.push_back(a);
  };
  const Slot slot = slab_.SlotOf(n);
  const SlotRef* fingers = SlotFingers(slot);
  const SlotRef* succs = SlotSuccessors(slot);
  for (std::size_t i = 0; i < n.finger_count; ++i) consider(fingers[i].addr);
  for (std::size_t i = 0; i < n.succ_count; ++i) consider(succs[i].addr);
  consider(n.predecessor.addr);
  return out;
}

std::vector<NodeAddr> ChordRing::FingersOf(NodeAddr addr) const {
  const Node& n = slab_.MustGet(addr);
  std::vector<NodeAddr> out;
  out.reserve(n.finger_count);
  const SlotRef* fingers = SlotFingers(slab_.SlotOf(n));
  for (std::size_t i = 0; i < n.finger_count; ++i) out.push_back(fingers[i].addr);
  return out;
}

std::vector<NodeAddr> ChordRing::SuccessorListOf(NodeAddr addr) const {
  const Node& n = slab_.MustGet(addr);
  std::vector<NodeAddr> out;
  out.reserve(n.succ_count);
  const SlotRef* succs = SlotSuccessors(slab_.SlotOf(n));
  for (std::size_t i = 0; i < n.succ_count; ++i) out.push_back(succs[i].addr);
  return out;
}

ChordRing::Slot ChordRing::FirstLiveSuccessorSlot(const Node& n) const {
  const SlotRef* succs = SlotSuccessors(slab_.SlotOf(n));
  for (std::size_t i = 0; i < n.succ_count; ++i) {
    const Slot slot = slab_.Resolve(succs[i]);
    if (slot != kNoSlot) return slot;
    ++maintenance_.dead_links_skipped;
  }
  // Whole successor list died (only possible under extreme churn between
  // maintenance rounds): detect the failure and recover from the oracle,
  // as a real node would recover through its failure detector + backup list.
  return oracle_[oracle_.SuccessorIndex(n.id)].slot;
}

ChordRing::Slot ChordRing::FirstLiveSuccessorSlotExcept(
    const Node& n, NodeAddr excluded) const {
  const SlotRef* succs = SlotSuccessors(slab_.SlotOf(n));
  for (std::size_t i = 0; i < n.succ_count; ++i) {
    const SlotRef& s = succs[i];
    if (s.addr == excluded) continue;
    const Slot slot = slab_.Resolve(s);
    if (slot != kNoSlot) return slot;
  }
  return oracle_.FirstFrom(slab_, oracle_.SuccessorIndex(n.id), excluded);
}

ChordRing::Slot ChordRing::ClosestPrecedingSlot(const Node& n, Key key) const {
  // Fingers from most- to least-significant, then the successor list; pick
  // the live node whose ID most closely precedes the key. A current ref's
  // target ID is on the header line its generation check read; a stale one
  // resolves by address, to the same node if it rejoined elsewhere.
  const Slot self = slab_.SlotOf(n);
  const SlotRef* fingers = SlotFingers(self);
  for (std::size_t i = n.finger_count; i-- > 0;) {
    const SlotRef& f = fingers[i];
    if (f.addr == kNoNode || f.addr == n.addr) continue;
    const Slot slot = slab_.Resolve(f);
    if (slot == kNoSlot) {
      ++maintenance_.dead_links_skipped;
      continue;
    }
    if (InIntervalOO(slab_[slot].id, n.id, key)) return slot;
  }
  Slot best = kNoSlot;
  Key best_id = n.id;
  const SlotRef* succs = SlotSuccessors(self);
  for (std::size_t i = 0; i < n.succ_count; ++i) {
    const SlotRef& s = succs[i];
    if (s.addr == kNoNode || s.addr == n.addr) continue;
    const Slot slot = slab_.Resolve(s);
    if (slot == kNoSlot) continue;
    const Key sid = slab_[slot].id;
    if (!InIntervalOO(sid, n.id, key)) continue;
    if (best == kNoSlot || InIntervalOO(best_id, n.id, sid)) {
      best = slot;
      best_id = sid;
    }
  }
  return best;
}

const SlotRef* ChordRing::ClosestPrecedingRefFresh(const Node& n,
                                                   Key key) const {
  // Mirror of ClosestPrecedingSlot under the freshness invariant: every
  // generation compare in the general scan would pass, so the candidate
  // slot comes straight from the ref. Same iteration order, same skip
  // conditions, same interval tests — returns the ref the general scan's
  // returned slot belongs to (test_chord checks both paths against one
  // address-keyed reference walk).
  const Slot self = slab_.SlotOf(n);
  // Pure-id scan over the dense mirror: on a fresh ring every finger entry
  // is a live ref (finger_count == bits), a self-pointing finger carries
  // id == n.id (which the open interval rejects), and kNoNode entries
  // cannot exist — so the general loop's skip conditions reduce to the
  // interval test and the scan vectorizes. The general scan's successor-list
  // pass is never needed here: StepOnce asks only for a key past
  // successor(0), which is finger 0 on a fresh ring, so the scan stops at a
  // finger.
  const int idx = ScanFingerIds(SlotFingerIds(self), n.finger_count, n.id, key);
  return idx >= 0 ? &SlotFingers(self)[idx] : nullptr;
}

bool ChordRing::StepOnce(LookupState& st, LookupResult& r) const {
  if (OwnsNode(slab_[st.cur], r.key)) return Arrive(st, r);
  if (Shortcut(st, r)) return true;
  const Node& n = slab_[st.cur];
  if (links_fresh_ && n.succ_count != 0) {
    // Fresh ring: successors.front() is live and its cached id/addr are
    // current, so the hop needs no generation derefs at all — not even the
    // next node's header (its address comes from the link). The walk's only
    // serialized load is this node's own state, which the batch engine
    // prefetches a full pipeline round ahead.
    if (n.s0_slot == st.cur) return Arrive(st, r);
    Slot next;
    NodeAddr next_addr;
    if (InIntervalOC(r.key, n.id, n.s0_id)) {
      next = n.s0_slot;
      next_addr = n.s0_addr;
    } else {
      const SlotRef* cp = ClosestPrecedingRefFresh(n, r.key);
      if (cp == nullptr || cp->slot == st.cur) {
        next = n.s0_slot;
        next_addr = n.s0_addr;
      } else {
        next = cp->slot;
        next_addr = cp->addr;
      }
    }
    Hop(st, r, next, next_addr);
    return r.hops <= st.max_hops;
  }
  const Slot succ = FirstLiveSuccessorSlot(n);
  // Sole member believes it owns everything; Owns() should have caught
  // this, but guard against a dangling predecessor pointer.
  if (succ == st.cur) return Arrive(st, r);
  Slot next;
  if (InIntervalOC(r.key, n.id, slab_[succ].id)) {
    next = succ;
  } else {
    next = ClosestPrecedingSlot(n, r.key);
    if (next == kNoSlot || next == st.cur) next = succ;
  }
  Hop(st, r, next, slab_[next].addr);
  // Past the cap, ok stays false: routing failure (should not happen).
  return r.hops <= st.max_hops;
}

bool ChordRing::LookupStep(LookupState& st) const {
  if (!links_fresh_ || st.done) return Route::LookupStep(st);
  if (StepOnce(st, *st.out)) return true;
  MarkDone(st);
  return false;
}

void ChordRing::LookupPrefetch(const LookupState& st) const {
  if (st.done) return;
  // Every address below is computed from the slot index alone — no
  // dependent chase, so one prefetch covers the whole hop. A fresh step reads
  // the header line (successor(0) is cached inside it), scans the id mirror
  // tail-first, then reads the matched link from the finger extent.
  __builtin_prefetch(&slab_[st.cur], 0, 3);
  const char* ids = reinterpret_cast<const char*>(SlotFingerIds(st.cur));
  const std::size_t id_bytes = cfg_.bits * sizeof(Key);
  const char* iend = ids + id_bytes;
  constexpr std::size_t kIdTail = 192;  // 24 ids — deeper than most scans
  for (std::size_t off = 1; off <= id_bytes && off <= kIdTail; off += 64) {
    __builtin_prefetch(iend - off, 0, 3);
  }
  // The matched finger's ref is then read from the finger extent; matches
  // cluster at the top of the table, so fetch the lines holding its last
  // 128 bytes (the top ten refs).
  const std::size_t ref_bytes = cfg_.bits * sizeof(SlotRef);
  const char* fend =
      reinterpret_cast<const char*>(SlotFingers(st.cur)) + ref_bytes;
  __builtin_prefetch(fend - 1, 0, 3);
  if (ref_bytes > 64) __builtin_prefetch(fend - 65, 0, 3);
}

void ChordRing::SyncSucc0(Node& n) {
  // Called right after s0 was built, so it is current: its target's header
  // holds the id.
  const SlotRef& s0 = SlotSuccessors(slab_.SlotOf(n))[0];
  n.s0_id = slab_[s0.slot].id;
  n.s0_slot = s0.slot;
  n.s0_addr = s0.addr;
}

void ChordRing::BuildFingers(Node& n) {
  const Slot self = slab_.SlotOf(n);
  SlotRef* fingers = SlotFingers(self);
  Key* fids = SlotFingerIds(self);
  for (unsigned i = 0; i < cfg_.bits; ++i) {
    const Slot f = oracle_.OwnerSlot(FingerStart(n.id, i));
    fingers[i] = slab_.MakeRef(f);
    fids[i] = slab_[f].id;
  }
  n.finger_count = static_cast<std::uint16_t>(cfg_.bits);
}

void ChordRing::BuildSuccessors(Node& n, std::size_t pos) {
  const Slot self = slab_.SlotOf(n);
  SlotRef* succs = SlotSuccessors(self);
  n.succ_count = 0;
  std::size_t idx = oracle_.Next(pos);
  for (std::size_t k = 0; k < cfg_.successor_list; ++k) {
    if (oracle_[idx].slot == self) break;  // wrapped all the way
    succs[n.succ_count++] = slab_.MakeRef(oracle_[idx].slot);
    idx = oracle_.Next(idx);
  }
  if (n.succ_count == 0) {
    succs[0] = slab_.MakeRef(self);
    n.succ_count = 1;
  }
  SyncSucc0(n);
}

void ChordRing::BuildPredecessor(Node& n, std::size_t pos) {
  // What repeated stabilize() rounds converge to.
  n.predecessor = slab_.MakeLink(oracle_[oracle_.Prev(pos)].slot);
}

void ChordRing::NoteMovedArc(std::size_t pos, std::size_t found) {
  if (sweep_pending_) return;
  // With fewer than two members the event moved every key: no arc to
  // repair. Otherwise count an event's repair as bits + successor_list + 3
  // node updates against the sweep's n: timed with either path forced on
  // standalone rings (n = 384 at 9 bits, 1024 at 14, 2048 at 11), the
  // repair of k events overtook the sweep between k (bits + successor_list
  // + 3) = 0.9 n and 1.9 n (micro_dht's BM_ChordStabilizeAfterBurst shows
  // the two sides of this cutoff). From there on the sweep is cheaper, and
  // the lists stop growing.
  if (found > 1) {
    moved_arcs_.push_back({oracle_[oracle_.Prev(pos)].id, oracle_[pos].id});
    const std::size_t per_arc = cfg_.bits + cfg_.successor_list + 3;
    if (moved_arcs_.size() * per_arc < slab_.size()) return;
  }
  moved_arcs_.clear();
  repointed_.clear();
  sweep_pending_ = true;
}

void ChordRing::NoteRepointed(Slot s) {
  if (!sweep_pending_) repointed_.push_back(slab_.MakeRef(s));
}

void ChordRing::RepairArc(Key lo, Key hi) {
  // Owners changed exactly for the keys in (lo, hi]. Finger i of y targets
  // owner(y + 2^i), so it moved iff y lies in the arc shifted back by 2^i.
  const Key mask = space_ - 1;
  const std::size_t n = oracle_.size();
  for (unsigned i = 0; i < cfg_.bits; ++i) {
    const Key step = Key{1} << i;
    const Key ylo = (lo - step) & mask;
    const Key yhi = (hi - step) & mask;
    std::size_t pos = oracle_.OwnerIndex((ylo + 1) & mask);
    for (std::size_t k = 0; k < n && InIntervalOC(oracle_[pos].id, ylo, yhi);
         ++k, pos = oracle_.Next(pos)) {
      const Slot y = oracle_[pos].slot;
      const Slot f = oracle_.OwnerSlot(FingerStart(oracle_[pos].id, i));
      SlotFingers(y)[i] = slab_.MakeRef(f);
      SlotFingerIds(y)[i] = slab_[f].id;
    }
  }
  // The arc's current owner o: the successor_list members before it list
  // it (or listed what left it), and o's successor list and predecessor
  // moved. o's fingers need nothing more: a joiner built its own, and the
  // loop above re-derived every other finger whose start lies in the arc.
  // o's successor needs nothing either: a join set its predecessor to the
  // joiner, and what a later leave wrote there is in repointed_.
  const std::size_t o = oracle_.OwnerIndex(hi);
  std::size_t pos = o;
  for (std::size_t k = 0; k < cfg_.successor_list && k < n; ++k) {
    pos = oracle_.Prev(pos);
    BuildSuccessors(slab_[oracle_[pos].slot], pos);
  }
  Node& owner = slab_[oracle_[o].slot];
  BuildSuccessors(owner, o);
  BuildPredecessor(owner, o);
}

void ChordRing::RebuildAll() {
  // Members in id order. Virtual position v in [0, 2n) is oracle_[v mod n]
  // lifted by space_ on the second lap, so ids grow strictly along it and
  // the owner of every finger start id + 2^i (< id + space_) lies within
  // one lap ahead. Starts grow with the member id, so one cursor per finger
  // index only ever moves forward: about 2n steps each, and no search.
  const std::size_t n = oracle_.size();
  auto lifted = [&](std::size_t v) {
    return v < n ? oracle_[v].id : oracle_[v - n].id + space_;
  };
  std::array<std::size_t, 64> cursor{};
  for (std::size_t pos = 0; pos < n; ++pos) {
    const Slot self = oracle_[pos].slot;
    Node& node = slab_[self];
    SlotRef* fingers = SlotFingers(self);
    Key* fids = SlotFingerIds(self);
    for (unsigned i = 0; i < cfg_.bits; ++i) {
      const Key start = node.id + (Key{1} << i);
      std::size_t& c = cursor[i];
      while (lifted(c) < start) ++c;
      const RingOracle::Entry& f = oracle_[c < n ? c : c - n];
      fingers[i] = slab_.MakeRef(f.slot);
      fids[i] = f.id;
    }
    node.finger_count = static_cast<std::uint16_t>(cfg_.bits);
    BuildSuccessors(node, pos);
    BuildPredecessor(node, pos);
  }
}

void ChordRing::StabilizeAll() {
  if (sweep_pending_) {
    RebuildAll();
  } else {
    for (const MovedArc& arc : moved_arcs_) RepairArc(arc.lo, arc.hi);
    for (const SlotRef& l : repointed_) {
      const Slot s = slab_.Resolve(l);
      if (s == kNoSlot) continue;  // left since; its arc was repaired
      Node& node = slab_[s];
      BuildPredecessor(node, oracle_.IndexOf(node.id));
    }
  }
  moved_arcs_.clear();
  repointed_.clear();
  sweep_pending_ = false;
  // The protocol's bill: every live node refreshes its bits fingers, its
  // successor list (min(successor_list, n - 1) entries; itself when alone)
  // and its predecessor, whatever the repair above had to touch.
  const std::size_t n = slab_.size();
  const std::size_t succs = n > 1 ? std::min(cfg_.successor_list, n - 1) : 1;
  maintenance_.stabilize_messages += n * (cfg_.bits + succs + 1);
  // Every link in every live node now equals its oracle derivation: all
  // generations current until the next membership change.
  links_fresh_ = true;
}

bool ChordRing::LinksMatchOracle() const {
  // Deliberately independent of RebuildAll/RepairArc: one owner search per
  // finger and modular positions, as the converged state is defined.
  auto same = [](const SlotRef& a, const SlotRef& b) {
    return a.slot == b.slot && a.gen == b.gen && a.addr == b.addr;
  };
  const std::size_t n = oracle_.size();
  if (slab_.size() != n) return false;
  for (std::size_t pos = 0; pos < n; ++pos) {
    const Slot self = oracle_[pos].slot;
    const Node& node = slab_[self];
    if (node.finger_count != cfg_.bits) return false;
    for (unsigned i = 0; i < cfg_.bits; ++i) {
      const Slot want = oracle_.OwnerSlot(FingerStart(node.id, i));
      if (!same(SlotFingers(self)[i], slab_.MakeRef(want))) return false;
      if (SlotFingerIds(self)[i] != slab_[want].id) return false;
    }
    const std::size_t count =
        n > 1 ? std::min(cfg_.successor_list, n - 1) : 1;
    if (node.succ_count != count) return false;
    const SlotRef* succs = SlotSuccessors(self);
    for (std::size_t k = 0; k < count; ++k) {
      const Slot want = n > 1 ? oracle_[(pos + 1 + k) % n].slot : self;
      if (!same(succs[k], slab_.MakeRef(want))) return false;
    }
    if (node.s0_id != slab_[succs[0].slot].id ||
        node.s0_slot != succs[0].slot || node.s0_addr != succs[0].addr) {
      return false;
    }
    const Link pred = slab_.MakeLink(oracle_[(pos + n - 1) % n].slot);
    if (!same(node.predecessor, pred) || node.predecessor.id != pred.id) {
      return false;
    }
  }
  return true;
}

std::size_t ChordRing::ApproxMemoryBytes() const {
  return KeyedRing::ApproxMemoryBytes() + links_.capacity() * sizeof(SlotRef) +
         finger_ids_.capacity() * sizeof(Key);
}

void ChordRing::CollapseSlabs() {
#if defined(__linux__) && defined(MADV_COLLAPSE)
  // Synchronously back the slabs with transparent huge pages where the
  // kernel allows it. x86 drops software prefetches whose page walk misses
  // the TLB, so a multi-hundred-MB slab on 4K pages defeats the lookup
  // pipeline; 2M pages keep it TLB-resident. Best effort: alignment or
  // kernel support may make this a no-op, which only costs speed.
  auto collapse = [](void* p, std::size_t len) {
    constexpr std::uintptr_t kHuge = std::uintptr_t{1} << 21;
    const auto base = reinterpret_cast<std::uintptr_t>(p);
    const std::uintptr_t lo = (base + kHuge - 1) & ~(kHuge - 1);
    const std::uintptr_t hi = (base + len) & ~(kHuge - 1);
    if (hi > lo) {
      (void)madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_COLLAPSE);
    }
  };
  collapse(slab_.data(), slab_.slot_count() * sizeof(Node));
  collapse(links_.data(), links_.size() * sizeof(SlotRef));
#endif
}

Key JoinerId(const RingOracle& members, NodeAddr addr, unsigned bits,
             std::uint64_t seed) {
  const std::uint64_t space = std::uint64_t{1} << bits;
  const std::uint64_t free_ids = space - members.size();
  if (free_ids == 0) throw ConfigError("no free id left in the ring");
  // HashedId draws space / free_ids times on average. On a nearly full ring
  // — the paper's 11-bit ring at n = 2048 has one free id after a leave —
  // that is thousands of draws, so answer them from a bitmap of the taken
  // ids instead of one oracle search each. Below the threshold (Quick's
  // 75%-full rings draw 4 times) filling the bitmap costs more than it
  // saves. Both predicates give the same answers: same salts, same id.
  constexpr std::uint64_t kBitmapDraws = 16;
  if (space / free_ids >= kBitmapDraws) {
    std::vector<std::uint64_t> taken((space + 63) / 64);
    for (std::size_t i = 0; i < members.size(); ++i) {
      const Key id = members[i].id;
      taken[id >> 6] |= std::uint64_t{1} << (id & 63);
    }
    return HashedId(addr, bits, seed, [&](Key k) {
      return ((taken[k >> 6] >> (k & 63)) & 1) != 0;
    });
  }
  return HashedId(addr, bits, seed,
                  [&](Key k) { return members.Contains(k); });
}

std::vector<std::pair<NodeAddr, Key>> InitialIds(std::size_t n, unsigned bits,
                                                 std::uint64_t seed,
                                                 bool deterministic_ids,
                                                 NodeAddr base_addr) {
  const std::uint64_t space = std::uint64_t{1} << bits;
  std::vector<std::pair<NodeAddr, Key>> members;
  members.reserve(n);
  if (deterministic_ids) {
    if (n > space) throw ConfigError("more nodes than identifiers");
    // Seed-derived rotation: rings built with different seeds place the same
    // addresses at different (still evenly spaced) positions. Without this,
    // Mercury's m hubs would all map the same address to the same sector and
    // every hub's hot key region would land on the same node.
    std::uint64_t st = seed;
    const Key offset = SplitMix64(st) & (space - 1);
    for (std::size_t i = 0; i < n; ++i) {
      // Proportional placement floor(i * space / n): evenly spread over the
      // whole space even when space is not a multiple of n.
      const auto id = static_cast<Key>(
          (static_cast<unsigned __int128>(i) * space / n + offset) &
          (space - 1));
      members.push_back({static_cast<NodeAddr>(base_addr + i), id});
    }
    return members;
  }
  // A hash set of the IDs so far stands in for the growing oracle.
  std::unordered_set<Key> used;
  used.reserve(n * 2);
  for (std::size_t i = 0; i < n; ++i) {
    const auto addr = static_cast<NodeAddr>(base_addr + i);
    const Key id =
        HashedId(addr, bits, seed, [&](Key k) { return used.count(k) != 0; });
    used.insert(id);
    members.push_back({addr, id});
  }
  return members;
}

}  // namespace lorm::chord

namespace lorm {
template class RingRoute<chord::ChordRing, chord::ChordNode,
                         chord::MembershipObserver,
                         HugePageAllocator<chord::ChordNode>>;
}  // namespace lorm
