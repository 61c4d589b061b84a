// Observability: sim-time-bucketed time series and HDR-style tail latency.
//
// Two instruments the cumulative metrics registry cannot express:
//
//  * `TimelineSampler` — how an experiment's behaviour *evolves over
//    simulated time*. The churn/failure harnesses feed it events as they
//    dispatch; it buckets them into fixed sim-time windows and, at each
//    window close, snapshots the metrics registry (counter deltas per
//    window) and an optional per-node load probe. The result is a JSONL
//    series (`--timeline[=file]`), one object per window.
//
//  * `LatencyHistogram` — a log-bucketed (HDR-style) histogram of latency
//    samples in integer nanoseconds, with exact-bucket-bound quantiles
//    (p50/p90/p99/p999 at <= ~3% relative error). Unlike `Summary` it
//    merges exactly: merging per-trial histograms in trial order yields
//    the same counts no matter how trials were scheduled.
//
// Determinism: the harness loops that drive a sampler are single-threaded
// (discrete-event dispatch), and every Add/Advance call is a pure function
// of the experiment's own deterministic event stream — so timeline files
// are byte-identical for any --jobs. The registry deltas inherit the
// counters' commutativity.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace lorm::obs {

// ---- HDR-style latency histogram ------------------------------------------

/// Log-bucketed histogram over [0, 2^63) integer values (nanoseconds by
/// convention). Values below 2^kSubBits are exact; above, each power-of-two
/// octave is split into 2^kSubBits sub-buckets, bounding the relative
/// quantization error at 2^-kSubBits (~3%).
class LatencyHistogram {
 public:
  static constexpr unsigned kSubBits = 5;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  /// Bucket count: 2*kSub exact-and-first-octave buckets plus kSub
  /// sub-buckets per higher octave (up to e = 63).
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;

  void Record(std::uint64_t value_ns);
  /// Exact merge: per-bucket sums. Merging trial histograms sequentially
  /// is scheduling-independent.
  void Merge(const LatencyHistogram& other);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ > 0 ? min_ : 0; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ > 0 ? static_cast<double>(sum_) / static_cast<double>(count_)
                      : 0.0;
  }

  /// The value v such that at least ceil(q * count) samples are <= v:
  /// the exact upper bound of the covering bucket, clamped to the largest
  /// sample ever recorded (so p999 of a constant stream is that constant).
  /// Returns 0 on an empty histogram. `q` is clamped to [0, 1].
  std::uint64_t ValueAtQuantile(double q) const;

  /// Bucket index covering `v` (exposed for the unit tests).
  static std::size_t BucketIndex(std::uint64_t v);
  /// Largest value mapping to bucket `idx`.
  static std::uint64_t BucketUpperBound(std::size_t idx);

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

/// The tail summary every latency table grows (nanoseconds).
struct LatencyTail {
  std::uint64_t count = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t p999 = 0;
  std::uint64_t max = 0;
};

LatencyTail SummarizeTail(const LatencyHistogram& h);

// ---- Time-series sampler ---------------------------------------------------

struct TimelineConfig {
  /// Sim-time seconds per window.
  double window = 5.0;
};

class TimelineSampler {
 public:
  explicit TimelineSampler(TimelineConfig cfg);

  /// Installs the per-node load probe, called once per window close; it
  /// returns the per-node query-load counts accumulated *in that window*
  /// (the harness resets the service's load counters after each probe).
  void SetLoadProbe(std::function<std::vector<double>()> probe);

  /// Closes every window ending at or before `now`. Harness loops call
  /// this before dispatching an event at sim time `now`.
  void Advance(SimTime now);

  /// Accumulates `v` into series `name` of the current (open) window.
  void Add(std::string_view series, double v);

  /// Closes the final window (through `end`) and freezes the sampler.
  void Finish(SimTime end);

  /// One JSON object per closed window, in time order:
  /// {"window":K,"t0":A,"t1":B,"series":{name:value,...}
  ///  [,"load":{"nodes":N,"total":T,"max":M}]}
  /// Series keys are name-sorted; the "load" object appears iff a probe is
  /// installed. Registry counter deltas appear as "ctr.<name>" series.
  void WriteJsonLines(std::ostream& os) const;

  std::size_t windows() const { return closed_.size(); }
  double window_seconds() const { return cfg_.window; }

 private:
  struct Window {
    std::uint64_t index = 0;
    double t0 = 0.0;
    double t1 = 0.0;
    std::map<std::string, double> series;
    bool has_load = false;
    std::size_t load_nodes = 0;
    double load_total = 0.0;
    double load_max = 0.0;
  };

  void CloseCurrent();

  TimelineConfig cfg_;
  std::function<std::vector<double>()> probe_;
  std::uint64_t current_index_ = 0;
  std::map<std::string, double> current_series_;
  std::map<std::string, std::uint64_t> last_counters_;
  bool counters_primed_ = false;
  std::vector<Window> closed_;
  bool finished_ = false;
};

}  // namespace lorm::obs
