// Thread-safe per-node visit accounting for the discovery services.
//
// Query() is logically read-only but records which nodes absorbed the query
// traffic (QueryLoadCounts — the popularity-skew ablation's metric). With
// the parallel experiment engine replaying queries from many workers against
// one shared service, those counters are the only state the query path
// writes, so they get their own small concurrent container. Counts are
// commutative sums, so parallel replay produces exactly the totals of a
// sequential run.
//
// A range walk records every node it visits, so Record is on the per-visit
// path and takes no lock: one relaxed atomic add into a flat array indexed
// by address. Addresses are dense (0..n-1 plus churn joins), and the array
// grows in segments that never move — segment k holds the 64·2^k addresses
// after those of segments 0..k-1 — so a Record that races a growth never
// writes into storage being copied. A segment is allocated the first time an
// address in it is recorded and published with one compare-and-swap; after
// that, recording allocates nothing. Memory stays within twice the highest
// recorded address.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "common/types.hpp"

namespace lorm::discovery {

class VisitCounter {
 public:
  VisitCounter() = default;
  VisitCounter(const VisitCounter&) = delete;
  VisitCounter& operator=(const VisitCounter&) = delete;
  ~VisitCounter() {
    for (auto& seg : segments_) delete[] seg.load(std::memory_order_relaxed);
  }

  /// One node absorbed one query visit (root or range-walk probe).
  void Record(NodeAddr addr) {
    const unsigned k = SegmentOf(addr);
    Cell* seg = segments_[k].load(std::memory_order_acquire);
    if (seg == nullptr) seg = Grow(k);
    seg[OffsetIn(k, addr)].fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t CountOf(NodeAddr addr) const {
    const unsigned k = SegmentOf(addr);
    const Cell* seg = segments_[k].load(std::memory_order_acquire);
    if (seg == nullptr) return 0;
    return seg[OffsetIn(k, addr)].load(std::memory_order_relaxed);
  }

  /// Zeroes every count and keeps the segments for the rerun. Not safe
  /// against concurrent Records.
  void Clear() {
    for (unsigned k = 0; k < kSegments; ++k) {
      Cell* seg = segments_[k].load(std::memory_order_acquire);
      if (seg == nullptr) continue;
      for (std::size_t i = 0; i < SegmentSize(k); ++i) {
        seg[i].store(0, std::memory_order_relaxed);
      }
    }
  }

 private:
  using Cell = std::atomic<std::uint64_t>;
  static constexpr unsigned kFirstBits = 6;  // segment 0 holds 64 addresses
  // Enough segments for every 32-bit address.
  static constexpr unsigned kSegments = 33 - kFirstBits;

  static std::size_t SegmentSize(unsigned k) {
    return std::size_t{1} << (kFirstBits + k);
  }
  /// Segment k holds addresses [64(2^k - 1), 64(2^(k+1) - 1)).
  static unsigned SegmentOf(NodeAddr addr) {
    return static_cast<unsigned>(std::bit_width((addr >> kFirstBits) + 1u)) -
           1;
  }
  static std::size_t OffsetIn(unsigned k, NodeAddr addr) {
    return addr - (SegmentSize(k) - (std::size_t{1} << kFirstBits));
  }

  /// Allocates segment k, or adopts the one another thread published first.
  Cell* Grow(unsigned k) {
    Cell* fresh = new Cell[SegmentSize(k)]();
    Cell* published = nullptr;
    if (segments_[k].compare_exchange_strong(published, fresh,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
      return fresh;
    }
    delete[] fresh;
    return published;
  }

  std::atomic<Cell*> segments_[kSegments] = {};
};

}  // namespace lorm::discovery
