// Batched, software-pipelined lookup engine.
//
// The lookup hot path is memory-bound at scale: once the slabs outgrow the
// cache, every hop chases cold slab lines (node header -> routing arrays ->
// link-target headers) and each miss serializes behind the last
// (`micro_dht --benchmark_filter=Lookup` shows ns/hop growing with n; the
// end-to-end measurement is perfbench's, see BENCHMARK.json and
// `python3 perfbench/run.py`). A single walk cannot hide that latency —
// hop t+1's address depends on hop t.
//
// B *independent* walks can. The engine keeps up to `batch` lookups in
// flight and advances them round-robin, one pipeline stage per visit, as
// many stages as the ring asks for (Ring::kPrefetchStages):
//
//   stage 0   __builtin_prefetch what the walk's next step reads at
//             addresses computed from its slot (Chord and the single-hop
//             ring need no more)
//   stage 1   header resident: prefetch the first link targets (Cycloid)
//   stage 2   prefetch the fallback walk's link targets (Cycloid)
//   step      execute one LookupStep (reads are now cache-resident),
//             then issue stage 0 for the node it hopped to
//
// While walk i waits for DRAM, walks i+1..i+B-1 execute their stages — the
// misses of B walks overlap instead of queuing. Everything rides on the
// resumable LookupBegin/LookupStep/LookupFinish API that Chord, Cycloid and
// the single-hop ring share (common/ring_route.hpp); the engine adds no
// routing logic of its own.
//
// Determinism contract: Run() produces byte-identical LookupResults — and
// identical observability output — to looking the requests up sequentially
// with LookupInto, in submission order (asserted in
// tests/test_batch_lookup.cpp):
//
//   * cache off: walks are independent pure readers of the ring, so
//     interleaving cannot change any walk's hops/path/owner; completion
//     callbacks and LookupFinish (which emits traces/metrics) run in
//     submission order.
//   * cache on: walks interact through the shared route cache (a walk's
//     teach changes what later walks probe), so pipelined interleaving
//     would reorder those interactions. When the ring's RouteCacheEnabled()
//     (never on the single-hop ring) the engine runs each walk to
//     completion with LookupInto, in submission order — correctness first,
//     pipelining where it is sound.
//
// Allocation: the lane ring is sized once in the constructor and lane
// results keep their path capacity across refills, so a warm engine runs
// whole batches without touching the allocator (tests/test_lookup_alloc.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace lorm::harness {

/// Advances up to `batch` independent lookups through `Ring` (ChordRing,
/// CycloidNetwork or SingleHopRing).
template <typename Ring>
class BatchLookupEngine {
 public:
  using Key = typename Ring::LookupKeyType;
  using Result = typename Ring::LookupResultType;
  using State = typename Ring::LookupState;

  struct Request {
    Key key{};
    NodeAddr origin = kNoNode;
  };

  /// `batch` lanes, advancing each walk through the ring's
  /// Ring::kPrefetchStages prefetch stages before every step. Cycloid's
  /// three cover its full pointer chase (node -> leaf-set and cubical
  /// targets -> cyclic targets); each extra stage is one more round-robin
  /// visit per hop, so Chord and the single-hop ring, whose steps read
  /// only addresses computed from the slot, run stage 0 alone (issued
  /// right after the previous step, a full lane round before use).
  /// Prefetch stages have no observable effect, so they never change
  /// results.
  explicit BatchLookupEngine(std::size_t batch)
      : lanes_(batch == 0 ? 1 : batch) {}

  std::size_t batch() const { return lanes_.size(); }

  /// Routes reqs[0..count) and calls done(index, result) exactly once per
  /// request, in submission order. The result reference is only valid for
  /// the duration of the callback (lanes are recycled immediately after).
  template <typename OnDone>
  void Run(const Ring& ring, const Request* reqs, std::size_t count,
           OnDone&& done) {
    if (count == 0) return;
    if (ring.RouteCacheEnabled()) {
      RunSequential(ring, reqs, count, done);
      return;
    }
    const std::size_t lanes = std::min(lanes_.size(), count);
    std::size_t submitted = 0;
    std::size_t retired = 0;
    for (std::size_t l = 0; l < lanes; ++l) {
      Refill(ring, lanes_[l], reqs, submitted++);
    }
    WarmNextOrigin(ring, reqs, submitted, count);
    while (retired < count) {
      for (std::size_t l = 0; l < lanes; ++l) {
        Lane& lane = lanes_[l];
        if (!lane.active) continue;
        if (lane.stage + 1 < Ring::kPrefetchStages) {
          ring.LookupPrefetch(lane.state, lane.stage + 1);
          ++lane.stage;
        } else if (ring.LookupStep(lane.state)) {
          ring.LookupPrefetch(lane.state, 0);
          lane.stage = 0;
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
        ring.LookupFinish(head.state);
        done(retired, static_cast<const Result&>(head.result));
        ++retired;
        if (submitted < count) {
          Refill(ring, head, reqs, submitted++);
          WarmNextOrigin(ring, reqs, submitted, count);
        }
      }
    }
  }

 private:
  struct Lane {
    State state;
    Result result;
    unsigned stage = 0;
    bool active = false;
  };

  void Refill(const Ring& ring, Lane& lane, const Request* reqs,
              std::size_t index) {
    ring.LookupBegin(reqs[index].key, reqs[index].origin, lane.result,
                     lane.state);
    ring.LookupPrefetch(lane.state, 0);
    lane.stage = 0;
    lane.active = true;
  }

  /// Warms the next request's origin resolution (a membership-table probe
  /// that LookupBegin performs) so it overlaps the walks in flight.
  void WarmNextOrigin(const Ring& ring, const Request* reqs, std::size_t next,
                      std::size_t count) {
    if (next < count) ring.PrefetchOrigin(reqs[next].origin);
  }

  template <typename OnDone>
  void RunSequential(const Ring& ring, const Request* reqs, std::size_t count,
                     OnDone& done) {
    Result& result = lanes_.front().result;
    for (std::size_t i = 0; i < count; ++i) {
      ring.LookupInto(reqs[i].key, reqs[i].origin, result);
      done(i, static_cast<const Result&>(result));
    }
  }

  std::vector<Lane> lanes_;
};

}  // namespace lorm::harness
