// Batched, software-pipelined range-walk engine.
//
// The range-walk counterpart of BatchLookupEngine (batch_lookup.hpp): a
// range sub-query's successor walk is a pointer chase too — visit a node,
// scan its directory, hop to its ring successor — and each
// directory scan misses cold cache lines that a single walk cannot
// hide, because visit t+1's node depends on visit t's successor link.
//
// B *independent* walks can hide them. The engine keeps up to `batch` walks
// in flight over one Chord ring and advances them round-robin, one visit per
// turn:
//
//   visit      the caller scans the current node's directory
//   advance    one WalkAdvance (coverage test + successor hop)
//   prefetch   the caller warms the *next* node's directory (e.g.
//              Directory::PrefetchMatch) while other lanes execute
//
// While walk i's directory scan waits for DRAM, walks i+1..i+B-1 run their
// visits — the misses of B walks overlap instead of queuing. Everything
// rides on the resumable WalkBegin/WalkAdvance/WalkFinish state machine
// (discovery/ring_walk.hpp); the engine adds no walk logic of its own.
//
// Determinism contract: walks are independent pure readers of the ring and
// the directories, so each request's visit sequence and QueryStats are
// byte-identical to a sequential WalkSuccessors of the same request, and
// done(index, stats) fires in submission order (asserted for batch sizes
// 1/8/32 in tests/test_planner.cpp). The engine is a harness-side tool for
// replaying many range sub-queries at once; the services' own Query paths
// stay sequential so per-query traces keep their sub-query structure.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "chord/chord.hpp"
#include "common/types.hpp"
#include "discovery/ring_walk.hpp"
#include "discovery/stats.hpp"

namespace lorm::harness {

/// Advances up to `batch` independent successor walks over one ring
/// (ChordRing or any substrate WalkBegin/WalkAdvance accept).
class BatchWalkEngine {
 public:
  struct Request {
    NodeAddr root = kNoNode;  ///< owner of key_lo (from a prior lookup)
    chord::Key key_lo = 0;
    chord::Key key_hi = 0;
  };

  explicit BatchWalkEngine(std::size_t batch)
      : lanes_(batch == 0 ? 1 : batch) {}

  std::size_t batch() const { return lanes_.size(); }

  /// Walks reqs[0..count), calling visit(index, node) for every node of
  /// request `index` (in that walk's own order), prefetch(index, node) for
  /// the node the walk will visit next, and done(index, stats) exactly once
  /// per request, in submission order. The stats reference is only valid
  /// for the duration of the callback (lanes are recycled immediately).
  template <typename Ring, typename Visit, typename Prefetch, typename Done>
  void Run(const Ring& ring, const Request* reqs, std::size_t count,
           Visit&& visit, Prefetch&& prefetch, Done&& done) {
    if (count == 0) return;
    const std::size_t lanes = std::min(lanes_.size(), count);
    std::size_t submitted = 0;
    std::size_t retired = 0;
    for (std::size_t l = 0; l < lanes; ++l) {
      Refill(ring, lanes_[l], reqs, submitted++);
    }
    while (retired < count) {
      for (std::size_t l = 0; l < lanes; ++l) {
        Lane& lane = lanes_[l];
        if (!lane.active) continue;
        lane.stats.visited_nodes += 1;
        visit(lane.index, lane.state.cur);
        if (discovery::WalkAdvance(ring, lane.state, lane.stats)) {
          prefetch(lane.index, lane.state.cur);
        } else {
          lane.active = false;
        }
      }
      // Retire finished walks from the submission-order head and refill the
      // freed lanes. Because refills happen only here, request r always
      // lives in lane r % lanes and retirement order == submission order.
      while (retired < count) {
        Lane& head = lanes_[retired % lanes];
        if (head.active) break;
        discovery::WalkFinish(head.state);
        done(retired, static_cast<const discovery::QueryStats&>(head.stats));
        ++retired;
        if (submitted < count) Refill(ring, head, reqs, submitted++);
      }
    }
  }

 private:
  struct Lane {
    discovery::SuccessorWalkState state;
    discovery::QueryStats stats;
    std::size_t index = 0;
    bool active = false;
  };

  template <typename Ring>
  void Refill(const Ring& ring, Lane& lane, const Request* reqs,
              std::size_t index) {
    lane.stats = discovery::QueryStats{};
    discovery::WalkBegin(ring, reqs[index].root, reqs[index].key_lo,
                         reqs[index].key_hi, lane.state);
    lane.index = index;
    lane.active = true;
  }

  std::vector<Lane> lanes_;
};

}  // namespace lorm::harness
