// Batched, software-pipelined lookup engine.
//
// BENCH_micro_dht.json shows the lookup hot path is memory-bound at scale:
// Chord's ns/hop explodes 36.8 -> 120.7 as the ring grows 256 -> 16k nodes,
// because every hop chases cold slab lines (node header -> routing arrays ->
// link-target headers) and each miss serializes behind the last. A single
// walk cannot hide that latency — hop t+1's address depends on hop t.
//
// B *independent* walks can. The engine keeps up to `batch` lookups in
// flight and advances them round-robin, one pipeline stage per visit:
//
//   stage 0   __builtin_prefetch the walk's current node header
//   stage 1   header resident: prefetch the routing arrays + first targets
//   stage 2   arrays resident: prefetch the link-target headers
//   step      execute one LookupStep (reads are now cache-resident),
//             then issue stage 0 for the node it hopped to
//
// While walk i waits for DRAM, walks i+1..i+B-1 execute their stages — the
// misses of B walks overlap instead of queuing. Everything rides on the
// resumable LookupBegin/LookupStep/LookupFinish API the rings expose (see
// chord.hpp); the engine adds no routing logic of its own.
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
//     would reorder those interactions. The engine detects route_cache in
//     the ring config (rings without the option have no cache) and runs
//     cache-on walks to completion in submission order instead —
//     correctness first, pipelining where it is sound.
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

/// Advances up to `batch` independent lookups through `Ring` (ChordRing or
/// CycloidNetwork — anything exposing the resumable lookup API).
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

  /// `batch` lanes, advancing each walk through `stages` prefetch stages
  /// before every step (clamped to [1, 3]). Three stages cover the full
  /// pointer chase (header -> arrays -> link targets); rings whose steps
  /// stop chasing earlier run tighter with fewer — each extra stage is one
  /// more round-robin visit per hop. A fresh Chord ring reads only
  /// computed addresses, so stage 0 alone (issued right after the previous
  /// step, a full lane round before use) suffices. Prefetch stages have no
  /// observable effect, so the stage count never changes results.
  explicit BatchLookupEngine(std::size_t batch, unsigned stages = 3)
      : stages_(std::clamp(stages, 1u, 3u)), lanes_(batch == 0 ? 1 : batch) {}

  std::size_t batch() const { return lanes_.size(); }
  unsigned stages() const { return stages_; }

  /// Routes reqs[0..count) and calls done(index, result) exactly once per
  /// request, in submission order. The result reference is only valid for
  /// the duration of the callback (lanes are recycled immediately after).
  template <typename OnDone>
  void Run(const Ring& ring, const Request* reqs, std::size_t count,
           OnDone&& done) {
    if (count == 0) return;
    if constexpr (requires { ring.config().route_cache; }) {
      if (ring.config().route_cache) {
        RunSequential(ring, reqs, count, done);
        return;
      }
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
        if (lane.stage + 1 < stages_) {
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
  /// that LookupBegin performs) so it overlaps the walks in flight. Rings
  /// without the hook simply skip it.
  void WarmNextOrigin(const Ring& ring, const Request* reqs, std::size_t next,
                      std::size_t count) {
    if (next >= count) return;
    if constexpr (requires(const Ring& r) { r.PrefetchOrigin(NodeAddr{}); }) {
      ring.PrefetchOrigin(reqs[next].origin);
    }
  }

  template <typename OnDone>
  void RunSequential(const Ring& ring, const Request* reqs, std::size_t count,
                     OnDone& done) {
    Lane& lane = lanes_.front();
    for (std::size_t i = 0; i < count; ++i) {
      ring.LookupBegin(reqs[i].key, reqs[i].origin, lane.result, lane.state);
      while (ring.LookupStep(lane.state)) {
      }
      ring.LookupFinish(lane.state);
      done(i, static_cast<const Result&>(lane.result));
    }
  }

  unsigned stages_ = 3;
  std::vector<Lane> lanes_;
};

}  // namespace lorm::harness
