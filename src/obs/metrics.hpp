// Observability: process-wide metrics registry.
//
// Counters and fixed-bucket histograms for the measurement pipeline. The
// registry is built for the parallel replay engine's constraints:
//
//  * recording is gated by one process-wide flag (`MetricsEnabled`, a
//    relaxed atomic load) so instrumented hot paths cost a load + branch
//    when observability is off — cheap enough to leave compiled into
//    `LookupInto` without disturbing the zero-allocation warm path that
//    `test_lookup_alloc` asserts;
//  * recording never allocates: counters and histogram bucket arrays are
//    sized at registration time, and updates are relaxed atomic adds on
//    per-thread shards, so replay workers never contend on one cache line;
//  * instruments are interned forever: `GetCounter`/`GetHistogram` return
//    stable references that survive `Reset()` (which zeroes in place), so
//    call sites may cache them in static locals.
//
// Counts are commutative sums, so a parallel replay records exactly the
// totals of a sequential run; only the JSON emission order is fixed (name
// order), never affected by thread interleaving.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lorm::obs {

namespace detail {
extern std::atomic<bool> g_metrics_enabled;
/// Stable small index of the calling thread, used to pick a shard.
std::size_t ThreadShard();
inline constexpr std::size_t kShards = 8;
}  // namespace detail

/// True while metric recording is on. One relaxed load; instrumented code
/// checks this (or relies on Counter/Histogram doing so) before recording.
inline bool MetricsEnabled() {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}
void SetMetricsEnabled(bool on);

/// Monotonic event counter, sharded per thread.
class Counter {
 public:
  void Add(std::uint64_t n = 1) {
    if (!MetricsEnabled()) return;
    cells_[detail::ThreadShard()].v.fetch_add(n, std::memory_order_relaxed);
  }
  /// Unconditional add (callers that already checked MetricsEnabled()).
  void AddUnchecked(std::uint64_t n) {
    cells_[detail::ThreadShard()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t Value() const;
  void Reset();

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  Cell cells_[detail::kShards];
};

/// Fixed-bucket histogram: bucket i counts samples <= bounds[i] (and greater
/// than bounds[i-1]); one implicit overflow bucket collects the rest. Bucket
/// layout is frozen at registration, so recording is a binary search plus a
/// relaxed add on the caller's shard — no locks, no allocation.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  /// Upper bounds 'lo + width, lo + 2*width, ...' (count of them).
  static std::vector<double> LinearBounds(double lo, double width,
                                          std::size_t count);
  /// Upper bounds 'first, first*2, first*4, ...' (count of them).
  static std::vector<double> ExponentialBounds(double first,
                                               std::size_t count);

  void Record(double x) {
    if (!MetricsEnabled()) return;
    RecordUnchecked(x);
  }
  void RecordUnchecked(double x);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts (bounds().size() + 1 entries; last = overflow).
  std::vector<std::uint64_t> BucketCounts() const;
  std::uint64_t TotalCount() const;
  double Sum() const;
  void Reset();

 private:
  struct Shard {
    std::vector<std::atomic<std::uint64_t>> buckets;
    std::atomic<std::uint64_t> count{0};
    /// Sum tracked in integer nanos-of-unit to keep the add atomic and
    /// commutative; samples here are hop/size counts, so the scale is safe.
    std::atomic<std::uint64_t> sum_milli{0};
  };

  std::vector<double> bounds_;
  Shard shards_[detail::kShards];
};

/// Global name -> instrument registry. Registration takes a lock; recording
/// never does. Instruments are never destroyed or re-bucketed, so cached
/// references stay valid for the process lifetime.
class Registry {
 public:
  static Registry& Global();

  Counter& GetCounter(std::string_view name);
  /// Returns the histogram registered under `name`, creating it with
  /// `upper_bounds` on first use (later bounds are ignored).
  Histogram& GetHistogram(std::string_view name,
                          std::vector<double> upper_bounds);

  /// Zeroes every instrument in place (references stay valid).
  void Reset();

  /// {"counters":{name:value,...},"histograms":{name:{"bounds":[...],
  ///  "counts":[...],"count":N,"sum":S},...}} — keys in name order.
  void WriteJson(std::ostream& os) const;

  /// Name-sorted snapshot of every counter's current value. The timeline
  /// sampler diffs two snapshots to get per-window counter deltas.
  std::vector<std::pair<std::string, std::uint64_t>> Snapshot() const;

  /// Prometheus text exposition format (version 0.0.4): every counter as a
  /// `<name>_total` counter, every histogram as cumulative `_bucket{le=...}`
  /// series plus `_sum`/`_count`, names sanitized ('.' -> '_', prefixed
  /// "lorm_") and emitted in registry name order — ready for a scrape
  /// endpoint in the live runtime.
  void WriteExposition(std::ostream& os) const;
  std::string ExpositionText() const;

 private:
  Registry() = default;

  mutable std::mutex mu_;  // guards the maps, not the instruments
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace lorm::obs
