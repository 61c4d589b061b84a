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
// B *independent* walks can. The engine is a client of `RouteLanes`
// (common/ring_route.hpp), the scheduler the query executor also runs: up
// to B lookups in flight, stepped round-robin, each step followed by one
// LookupPrefetch of what that walk's next step reads. While walk i waits
// for DRAM, walks i+1..i+B-1 step — the misses of B walks overlap instead
// of queuing. The engine adds no routing logic of its own.
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
//     (never on the single-hop ring) the engine routes one lane wide: each
//     lookup finishes, and teaches, before the next begins.
//
// Allocation: the lanes are sized once in the constructor and lane results
// keep their path capacity across lookups, so a warm engine runs whole
// batches without touching the allocator (tests/test_lookup_alloc.cpp).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/ring_route.hpp"
#include "common/types.hpp"

namespace lorm::harness {

/// Advances up to `batch` independent lookups through `Ring` (ChordRing,
/// CycloidNetwork or SingleHopRing).
template <typename Ring>
class BatchLookupEngine {
 public:
  struct Request {
    typename Ring::Id key{};
    NodeAddr origin = kNoNode;
  };

  explicit BatchLookupEngine(std::size_t batch)
      : lanes_(batch == 0 ? 1 : batch) {}

  std::size_t batch() const { return lanes_.size(); }

  /// Routes reqs[0..count) and calls done(index, result) exactly once per
  /// request, in submission order. The result reference is only valid for
  /// the duration of the callback (lanes are recycled immediately after).
  template <typename OnDone>
  void Run(const Ring& ring, const Request* reqs, std::size_t count,
           OnDone&& done) {
    const std::size_t width = ring.RouteCacheEnabled() ? 1 : lanes_.size();
    RouteLanes(
        lanes_.data(), width, count,
        [&](std::size_t i, RouteLane<Ring>& lane) {
          lane.ring = &ring;
          lane.key = reqs[i].key;
          lane.origin = reqs[i].origin;
          // Overlap the next request's origin->slot probe with the walks.
          if (i + 1 < count) ring.PrefetchOrigin(reqs[i + 1].origin);
        },
        [&](std::size_t i, RouteLane<Ring>& lane) {
          ring.LookupFinish(lane.state);
          done(i, std::as_const(lane.result));
        });
  }

 private:
  std::vector<RouteLane<Ring>> lanes_;
};

}  // namespace lorm::harness
