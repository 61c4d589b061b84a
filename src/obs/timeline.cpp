#include "obs/timeline.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <ostream>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace lorm::obs {

// ---- LatencyHistogram ------------------------------------------------------

std::size_t LatencyHistogram::BucketIndex(std::uint64_t v) {
  if (v < kSub) return static_cast<std::size_t>(v);
  // e = floor(log2 v) >= kSubBits; the top kSubBits+1 bits select one of
  // kSub sub-buckets inside octave e.
  const unsigned e = static_cast<unsigned>(std::bit_width(v)) - 1;
  const std::uint64_t m = v >> (e - kSubBits);  // in [kSub, 2*kSub)
  const std::size_t idx =
      static_cast<std::size_t>(e - kSubBits) * static_cast<std::size_t>(kSub) +
      static_cast<std::size_t>(m);
  return std::min(idx, kBuckets - 1);
}

std::uint64_t LatencyHistogram::BucketUpperBound(std::size_t idx) {
  if (idx < kSub) return static_cast<std::uint64_t>(idx);
  const std::size_t g = idx / static_cast<std::size_t>(kSub);
  const unsigned e = static_cast<unsigned>(g) + kSubBits - 1;
  const std::uint64_t m =
      static_cast<std::uint64_t>(idx) - (g - 1) * kSub;  // in [kSub, 2*kSub)
  return ((m + 1) << (e - kSubBits)) - 1;
}

void LatencyHistogram::Record(std::uint64_t value_ns) {
  ++buckets_[BucketIndex(value_ns)];
  ++count_;
  sum_ += value_ns;
  min_ = std::min(min_, value_ns);
  max_ = std::max(max_, value_ns);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

std::uint64_t LatencyHistogram::ValueAtQuantile(double q) const {
  if (count_ == 0) return 0;
  q = std::min(1.0, std::max(0.0, q));
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  const std::uint64_t want = std::max<std::uint64_t>(1, target);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cum += buckets_[i];
    if (cum >= want) return std::min(BucketUpperBound(i), max_);
  }
  return max_;
}

LatencyTail SummarizeTail(const LatencyHistogram& h) {
  LatencyTail t;
  t.count = h.count();
  t.p50 = h.ValueAtQuantile(0.50);
  t.p90 = h.ValueAtQuantile(0.90);
  t.p99 = h.ValueAtQuantile(0.99);
  t.p999 = h.ValueAtQuantile(0.999);
  t.max = h.max();
  return t;
}

// ---- TimelineSampler -------------------------------------------------------

TimelineSampler::TimelineSampler(TimelineConfig cfg) : cfg_(cfg) {
  if (cfg_.window <= 0.0) cfg_.window = 5.0;
  // Baseline for the first window's counter deltas: whatever the registry
  // held when the experiment started (population-phase counts excluded).
  for (const auto& [name, value] : Registry::Global().Snapshot()) {
    last_counters_[name] = value;
  }
  counters_primed_ = true;
}

void TimelineSampler::SetLoadProbe(
    std::function<std::vector<double>()> probe) {
  probe_ = std::move(probe);
}

void TimelineSampler::CloseCurrent() {
  Window w;
  w.index = current_index_;
  w.t0 = static_cast<double>(current_index_) * cfg_.window;
  w.t1 = static_cast<double>(current_index_ + 1) * cfg_.window;
  w.series = std::move(current_series_);
  current_series_.clear();

  // Registry counter deltas since the previous window close. New counters
  // appear with their full value (they were 0 at the baseline). Zero deltas
  // are skipped so idle metrics do not bloat every window.
  for (const auto& [name, value] : Registry::Global().Snapshot()) {
    auto it = last_counters_.find(name);
    const std::uint64_t prev = it != last_counters_.end() ? it->second : 0;
    if (value > prev) {
      w.series["ctr." + name] = static_cast<double>(value - prev);
    }
    last_counters_[name] = value;
  }

  if (probe_) {
    const std::vector<double> loads = probe_();
    w.has_load = true;
    w.load_nodes = loads.size();
    for (const double v : loads) {
      w.load_total += v;
      w.load_max = std::max(w.load_max, v);
    }
  }

  closed_.push_back(std::move(w));
  ++current_index_;
}

void TimelineSampler::Advance(SimTime now) {
  if (finished_) return;
  while (static_cast<double>(current_index_ + 1) * cfg_.window <= now) {
    CloseCurrent();
  }
}

void TimelineSampler::Add(std::string_view series, double v) {
  if (finished_) return;
  current_series_[std::string(series)] += v;
}

void TimelineSampler::Finish(SimTime end) {
  if (finished_) return;
  Advance(end);
  // Close the trailing partial window if the experiment reached into it or
  // recorded anything there.
  if (end > static_cast<double>(current_index_) * cfg_.window ||
      !current_series_.empty()) {
    CloseCurrent();
  }
  finished_ = true;
}

void TimelineSampler::WriteJsonLines(std::ostream& os) const {
  for (const Window& w : closed_) {
    os << "{\"window\":" << w.index << ",\"t0\":";
    WriteFixedNumber(os, w.t0);
    os << ",\"t1\":";
    WriteFixedNumber(os, w.t1);
    os << ",\"series\":{";
    bool first = true;
    for (const auto& [name, value] : w.series) {
      if (!first) os << ",";
      first = false;
      os << "\"" << name << "\":";
      WriteFixedNumber(os, value);
    }
    os << "}";
    if (w.has_load) {
      os << ",\"load\":{\"nodes\":" << w.load_nodes << ",\"total\":";
      WriteFixedNumber(os, w.load_total);
      os << ",\"max\":";
      WriteFixedNumber(os, w.load_max);
      os << "}";
    }
    os << "}\n";
  }
}

}  // namespace lorm::obs
