// Successor-list replication with O(Δ) ownership handoff (Chord rings).
//
// Placement (Leslie et al., "Reliable Data Storage in DHTs"): every
// directory entry lives on its key's owner plus the owner's r-1 ring
// successors, so node x holds exactly the entries whose key falls in its
// replica arc (id(pred_r(x)), id(x)] — see common/ring_diff.hpp. Advertise
// already writes that layout (the copy chain walks the owner's
// successors); the handlers here keep it true across membership changes by
// diffing each affected node's arc before/after the event and moving only
// the resulting add/del ring range:
//
//   join   — the joiner adopts its arc from its first successor (which
//            held a superset), and each of its r successors sheds the one
//            sector its arc no longer covers;
//   leave  — the departing node's entries each gain one new group member,
//            the (r-1)-th successor of the key's new owner (the other r-1
//            holders survive untouched);
//   crash  — each of the dead node's r nearest live successors lost one
//            sector of coverage; it is restored synchronously from a
//            surviving holder of that sector. This models the successor-
//            list repair a real deployment runs immediately on failure
//            detection; *routing* repair stays deferred to Maintain(), so
//            the degraded-phase routing experiments are unchanged.
//
// The handlers only move entries: that is all the handoff is. Everything
// else a membership event does happens once per event in the service,
// however many rings it has (DirectoryService's JoinNode, LeaveNode and
// FailNode): the result cache is invalidated before any ring changes, and
// the departed node's directory, its copies included, is dropped after
// every ring's handler ran.
//
// Every handler is a no-op at replicas == 1. RingHandoff at the end of this
// file is the membership observer of every Chord-keyed ring (SWORD's, each
// of Mercury's hubs, MAAN's and D1HT's): it picks the protocol at r > 1 and
// the primary-only re-homing at r == 1 (byte-identical to the
// pre-replication code). The `filter` predicate scopes the handoff to the
// entries a ring is responsible for (Mercury: one attribute per hub;
// SWORD, MAAN and D1HT: everything). Entry `replica` labels are recomputed
// on every copy this protocol performs, but copies sitting on untouched
// nodes may keep a stale label after the group rotates — the label is a
// best-effort diagnostic (replica_hits accounting); protocol decisions
// always derive from oracle distance, never from labels.
//
// LORM replicates over cyclic cluster successors instead of a global ring;
// its cluster-local rebuild lives in lorm_service.cpp.
//
// The handlers are templated over the ring: any substrate keyed by
// chord::Key that exposes the oracle walks (IdOf, OwnerOf/OwnerOfExcluding,
// NthOracleSuccessor/Predecessor, Contains, size) replicates identically —
// ChordRing and the single-hop ring both qualify.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "chord/chord.hpp"
#include "common/ring_diff.hpp"
#include "common/types.hpp"
#include "discovery/directory.hpp"
#include "discovery/discovery.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace lorm::discovery {

/// Entry filter that keeps every entry (probes and replication handoffs of
/// systems that store one record kind).
struct AllEntries {
  bool operator()(const auto&) const { return true; }
};
inline constexpr AllEntries kAllEntries{};

/// Modeled wire size of one moved directory entry: key + ordinal + epoch +
/// provider + attr/value payload. Fixed so bytes_moved is a deterministic
/// multiple of entries_moved.
inline constexpr std::uint64_t kEntryWireBytes = 48;

/// Accumulates a service's handoff work and mirrors it into the metrics
/// registry under "<system>.replication.{entries,bytes}_moved". The
/// counters are interned on the first nonzero move, so runs where the
/// protocol never fires (replicas == 1) keep the metrics JSON unchanged.
class ReplicationRecorder {
 public:
  explicit ReplicationRecorder(std::string system)
      : system_(std::move(system)) {}

  void RecordMoved(std::uint64_t entries) {
    if (entries == 0) return;
    stats_.entries_moved += entries;
    stats_.bytes_moved += entries * kEntryWireBytes;
    if (!obs::MetricsEnabled()) return;
    if (entries_ == nullptr) {
      entries_ = &obs::Registry::Global().GetCounter(
          system_ + ".replication.entries_moved");
      bytes_ = &obs::Registry::Global().GetCounter(
          system_ + ".replication.bytes_moved");
    }
    entries_->AddUnchecked(entries);
    bytes_->AddUnchecked(entries * kEntryWireBytes);
  }

  /// RecordMoved plus a flight-recorder event attributing the move to the
  /// membership change at `node` (kHandoff for join/leave handoffs,
  /// kReplicaRepair for crash restores). a = entries, b = wire bytes.
  void RecordMovedEvent(std::uint64_t entries, obs::FlightEventKind kind,
                        NodeAddr node) {
    RecordMoved(entries);
    if (entries != 0 && obs::FlightEnabled()) {
      obs::RecordFlight(kind, system_, node, entries,
                        entries * kEntryWireBytes);
    }
  }

  const ReplicationStats& stats() const { return stats_; }

 private:
  std::string system_;
  ReplicationStats stats_;
  obs::Counter* entries_ = nullptr;  // lazily interned (see class comment)
  obs::Counter* bytes_ = nullptr;
};

template <typename Ring>
std::size_t LiveCountExcluding(const Ring& ring, NodeAddr excluded) {
  const bool present = excluded != kNoNode && ring.Contains(excluded);
  return ring.size() - (present ? 1 : 0);
}

/// The node's replica arc at replication depth `depth` (it holds the
/// sectors of itself and its depth-1 predecessors): (id(pred_depth), id],
/// or the full ring when fewer than `depth` other members exist. Pass
/// `excluded` to evaluate the arc as if that member were already gone.
template <typename Ring>
RingRange<chord::Key> ReplicaArc(const Ring& ring, NodeAddr node,
                                std::size_t depth,
                                NodeAddr excluded = kNoNode) {
  RingRange<chord::Key> arc;
  arc.hi = ring.IdOf(node);
  if (depth >= LiveCountExcluding(ring, excluded)) {
    arc.lo = arc.hi;
    arc.full = true;
    return arc;
  }
  arc.lo = ring.IdOf(ring.NthOraclePredecessor(node, depth, excluded));
  return arc;
}

/// Replica label for a copy at `holder` of a key owned by `owner`: the
/// oracle distance owner -> holder, 0 when holder is not in the owner's
/// successor group (a stray copy awaiting shedding).
template <typename Ring>
std::uint8_t ReplicaDistance(const Ring& ring, NodeAddr owner,
                             NodeAddr holder, std::size_t replicas) {
  NodeAddr cur = owner;
  for (std::size_t i = 0; i < replicas; ++i) {
    if (cur == holder) return static_cast<std::uint8_t>(i);
    cur = ring.NthOracleSuccessor(cur, 1);
  }
  return 0;
}

/// Join handoff. Runs after `node` entered the ownership oracle. The new
/// node copies its whole arc from its first successor; each of its `r`
/// successors sheds the del-range its arc no longer covers. Work moved is
/// O(one replica arc), independent of ring size.
template <typename Ring, typename Filter>
void ChordReplicaJoin(const Ring& ring,
                      DirectoryStore<chord::Key>& store, std::size_t replicas,
                      NodeAddr node, ReplicationRecorder& rec,
                      Filter&& filter) {
  const std::size_t count = ring.size();
  if (replicas < 2 || count <= 1) return;
  const std::size_t eff = std::min(replicas, count);
  const RingRange<chord::Key> arc = ReplicaArc(ring, node, eff);
  const NodeAddr s1 = ring.NthOracleSuccessor(node, 1);
  if (const auto* dir = store.Find(s1); dir != nullptr) {
    std::vector<typename Directory<chord::Key>::Entry> gained;
    dir->ForEach([&](const auto& e) {
      if (arc.Contains(e.key) && filter(e)) gained.push_back(e);
    });
    for (auto& e : gained) {
      e.replica = ReplicaDistance(ring, ring.OwnerOf(e.key), node, replicas);
      store.Insert(node, std::move(e));
    }
    rec.RecordMovedEvent(gained.size(), obs::FlightEventKind::kHandoff, node);
  }
  const std::size_t old_eff = std::min(replicas, count - 1);
  NodeAddr t = node;
  for (std::size_t j = 0; j < eff; ++j) {
    t = ring.NthOracleSuccessor(t, 1);
    if (t == node) break;
    const RingRange<chord::Key> before = ReplicaArc(ring, t, old_eff, node);
    const RingRange<chord::Key> after = ReplicaArc(ring, t, eff);
    const RangeDiff<chord::Key> d = DiffSharedHigh(before, after);
    if (d.type != RangeDiffType::kDel) continue;
    store.EraseIf(t, [&](const auto& e) {
      return d.range.Contains(e.key) && filter(e);
    });
  }
}

/// Graceful-leave handoff. Runs while `node` is still in the ownership
/// oracle. Every entry it held gains exactly one new holder — the last
/// member of the key's post-departure successor group; the other r-1
/// holders already have their copies.
template <typename Ring, typename Filter>
void ChordReplicaLeave(const Ring& ring,
                       DirectoryStore<chord::Key>& store, std::size_t replicas,
                       NodeAddr node, ReplicationRecorder& rec,
                       Filter&& filter) {
  // With count <= replicas every survivor already holds every entry (all
  // arcs are full-ring), so the departing copies are redundant. Covers the
  // last-node case too.
  const std::size_t count = ring.size();  // departing node still counted
  if (replicas < 2 || count <= replicas) return;
  auto moved = store.TakeIf(node, std::forward<Filter>(filter));
  for (auto& e : moved) {
    const NodeAddr owner = ring.OwnerOfExcluding(e.key, node);
    const NodeAddr target = ring.NthOracleSuccessor(owner, replicas - 1, node);
    e.replica = static_cast<std::uint8_t>(replicas - 1);
    store.Insert(target, std::move(e));
  }
  rec.RecordMovedEvent(moved.size(), obs::FlightEventKind::kHandoff, node);
}

/// Crash restore. Runs while the dead `node` is still in the ownership
/// oracle (chord fires OnFail before the oracle erase); all walks exclude
/// it, so nothing here reads its copies, which die with it. Each of its r
/// nearest live successors lost one sector of coverage (its arc's new low
/// end) and re-fetches exactly that add-range from a surviving holder.
/// With r >= 2 a single crash loses nothing: the restored sector still has
/// r-1 live copies.
template <typename Ring, typename Filter>
void ChordReplicaFail(const Ring& ring,
                      DirectoryStore<chord::Key>& store, std::size_t replicas,
                      NodeAddr node, ReplicationRecorder& rec,
                      Filter&& filter) {
  // With count <= replicas the survivors (if any) already hold everything.
  const std::size_t count = ring.size();  // failed node still counted
  if (replicas < 2 || count <= replicas) return;
  NodeAddr t = node;
  for (std::size_t j = 0; j < replicas; ++j) {
    t = ring.NthOracleSuccessor(t, 1, node);
    if (t == node) break;
    const RingRange<chord::Key> before = ReplicaArc(ring, t, replicas);
    const RingRange<chord::Key> after = ReplicaArc(ring, t, replicas, node);
    const RangeDiff<chord::Key> d = DiffSharedHigh(before, after);
    if (d.type != RangeDiffType::kAdd) continue;
    // The gained range is exactly one pre-failure sector, whose surviving
    // holders are t's other group-mates; the owner of its high end
    // (excluding the dead node) is one of them.
    const NodeAddr source = ring.OwnerOfExcluding(d.range.hi, node);
    if (source == t) continue;
    const auto* dir = store.Find(source);
    if (dir == nullptr) continue;
    std::vector<typename Directory<chord::Key>::Entry> gained;
    dir->ForEach([&](const auto& e) {
      if (d.range.Contains(e.key) && filter(e)) gained.push_back(e);
    });
    for (auto& e : gained) {
      e.replica = static_cast<std::uint8_t>(replicas - 1);
      store.Insert(t, std::move(e));
    }
    rec.RecordMovedEvent(gained.size(), obs::FlightEventKind::kReplicaRepair,
                         node);
  }
}

/// The membership observer of one Chord-keyed ring (Chord or the
/// single-hop ring): every event hands off the entries `filter` accepts,
/// and nothing else. With replicas > 1 it runs the protocol above;
/// otherwise a joiner takes the primaries it now owns from its successor,
/// a leaver's primaries move to its successor (kNoNode: it was the last
/// node, the information is lost) and its stray replicas are dropped for
/// the next epoch to rebuild, and a crash hands off nothing.
template <typename Ring, typename Filter>
class RingHandoff : public chord::MembershipObserver {
 public:
  RingHandoff(const Ring& ring, DirectoryStore<chord::Key>& store,
              ReplicationRecorder& rec, std::size_t replicas,
              Filter filter = {})
      : ring_(ring), store_(store), rec_(rec), replicas_(replicas),
        filter_(filter) {}
  // The ring holds the observer's address.
  RingHandoff(const RingHandoff&) = delete;
  RingHandoff& operator=(const RingHandoff&) = delete;

  void OnJoin(NodeAddr node, NodeAddr successor) override {
    if (replicas_ > 1) {
      ChordReplicaJoin(ring_, store_, replicas_, node, rec_, filter_);
      return;
    }
    if (node == successor) return;  // first node of the ring
    auto moved = store_.TakeIf(successor, [&](const auto& e) {
      return e.replica == 0 && filter_(e) && ring_.Owns(node, e.key);
    });
    for (auto& e : moved) store_.Insert(node, std::move(e));
  }

  void OnLeave(NodeAddr node, NodeAddr successor) override {
    if (replicas_ > 1) {
      ChordReplicaLeave(ring_, store_, replicas_, node, rec_, filter_);
      return;
    }
    auto moved = store_.TakeIf(node, filter_);
    if (successor == kNoNode) return;
    for (auto& e : moved) {
      if (e.replica == 0) store_.Insert(successor, std::move(e));
    }
  }

  void OnFail(NodeAddr node) override {
    if (replicas_ > 1) {
      ChordReplicaFail(ring_, store_, replicas_, node, rec_, filter_);
    }
  }

 protected:
  std::size_t replicas() const { return replicas_; }

 private:
  const Ring& ring_;
  DirectoryStore<chord::Key>& store_;
  ReplicationRecorder& rec_;
  std::size_t replicas_;
  Filter filter_;
};

}  // namespace lorm::discovery
