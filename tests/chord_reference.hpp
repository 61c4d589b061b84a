// Reference Chord lookup over the ring's public, address-keyed inspection
// API: FingersOf, SuccessorListOf, Predecessor, IdOf, Contains and the
// oracle walks. It is the textbook iterative walk with the failure rules
// chord.cpp applies between maintenance rounds, written with no slot, no
// generation and no cached id: a table entry names an address, the address
// is live iff it is a member, and its id is the one it has now (it may have
// rejoined elsewhere with another). The slot-slab routing must reproduce it
// hop for hop, on fresh rings and on rings with crashed, departed and
// rejoined members alike.
//
// The walk reads nothing that counts: it bills its own dead links instead
// of calling Owns or Successor, which bill the ring's maintenance meter.
#pragma once

#include <cstdint>
#include <vector>

#include "chord/chord.hpp"

namespace lorm::chord {

struct ReferenceLookup {
  LookupResult result;
  /// Dead links the walk detected, billed as chord.cpp bills them: a dead
  /// predecessor, a dead successor-list entry passed over on the way to the
  /// first live one, and a dead finger in the closest-preceding scan.
  std::uint64_t dead_links_skipped = 0;
};

inline ReferenceLookup ReferenceChordLookup(const ChordRing& ring, Key key,
                                            NodeAddr origin) {
  ReferenceLookup ref;
  LookupResult& r = ref.result;
  r.key = key & (ring.space() - 1);
  if (!ring.Contains(origin)) return ref;
  const auto live = [&](NodeAddr a) {
    return a != kNoNode && ring.Contains(a);
  };
  // The node's own view of its sector (pred, self]. A dead predecessor is
  // replaced by the oracle's, as the failure detector would.
  const auto owns = [&](NodeAddr cur) {
    const NodeAddr pred = ring.Predecessor(cur);
    if (pred == kNoNode || pred == cur) return true;
    const Key cur_id = ring.IdOf(cur);
    Key pred_id;
    if (live(pred)) {
      pred_id = ring.IdOf(pred);
    } else {
      ++ref.dead_links_skipped;
      pred_id = ring.IdOf(ring.NthOraclePredecessor(cur, 1));
      if (pred_id == cur_id) return true;
    }
    return InIntervalOC(r.key, pred_id, cur_id);
  };
  // The first live successor-list entry; the oracle's when all are dead.
  const auto successor = [&](NodeAddr cur) {
    for (const NodeAddr s : ring.SuccessorListOf(cur)) {
      if (live(s)) return s;
      ++ref.dead_links_skipped;
    }
    return ring.NthOracleSuccessor(cur, 1);
  };
  const std::size_t max_hops = ring.size() + 4 * ring.bits() + 8;
  NodeAddr cur = origin;
  r.path.push_back(cur);
  while (!owns(cur)) {
    const Key cur_id = ring.IdOf(cur);
    const NodeAddr succ = successor(cur);
    if (succ == cur) break;
    NodeAddr next = kNoNode;
    if (InIntervalOC(r.key, cur_id, ring.IdOf(succ))) {
      next = succ;
    } else {
      const std::vector<NodeAddr> fingers = ring.FingersOf(cur);
      for (auto it = fingers.rbegin(); it != fingers.rend(); ++it) {
        const NodeAddr f = *it;
        if (f == kNoNode || f == cur) continue;
        if (!live(f)) {
          ++ref.dead_links_skipped;
          continue;
        }
        if (InIntervalOO(ring.IdOf(f), cur_id, r.key)) {
          next = f;
          break;
        }
      }
      if (next == kNoNode) {
        Key best_id = cur_id;
        for (const NodeAddr s : ring.SuccessorListOf(cur)) {
          if (s == cur || !live(s)) continue;
          const Key sid = ring.IdOf(s);
          if (!InIntervalOO(sid, cur_id, r.key)) continue;
          if (next == kNoNode || InIntervalOO(best_id, cur_id, sid)) {
            next = s;
            best_id = sid;
          }
        }
      }
      if (next == kNoNode || next == cur) next = succ;
    }
    cur = next;
    ++r.hops;
    r.path.push_back(cur);
    if (r.hops > max_hops) return ref;
  }
  r.owner = cur;
  r.ok = true;
  return ref;
}

}  // namespace lorm::chord
