#include "cache/result_cache.hpp"

#include <cstring>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace lorm::cache {

namespace {

void TickResultHit() {
  if (!obs::MetricsEnabled()) return;
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("lorm.cache.result.hits");
  c.AddUnchecked(1);
}

void TickResultMiss() {
  if (!obs::MetricsEnabled()) return;
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("lorm.cache.result.misses");
  c.AddUnchecked(1);
}

void TickResultInsert() {
  if (!obs::MetricsEnabled()) return;
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("lorm.cache.result.inserts");
  c.AddUnchecked(1);
}

void TickResultEvictions(std::size_t count) {
  if (count == 0 || !obs::MetricsEnabled()) return;
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("lorm.cache.result.evictions");
  c.AddUnchecked(static_cast<std::uint64_t>(count));
}

void TickJoinedHit(std::size_t subs) {
  if (!obs::MetricsEnabled()) return;
  // A joined hit answers every sub-query at once; charge the per-sub hit
  // counter for each so hit accounting is execution-strategy-independent.
  static obs::Counter& per_sub =
      obs::Registry::Global().GetCounter("lorm.cache.result.hits");
  per_sub.AddUnchecked(static_cast<std::uint64_t>(subs));
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("lorm.cache.result.joined_hits");
  c.AddUnchecked(1);
}

void TickJoinedMiss() {
  if (!obs::MetricsEnabled()) return;
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("lorm.cache.result.joined_misses");
  c.AddUnchecked(1);
}

void TickJoinedInsert() {
  if (!obs::MetricsEnabled()) return;
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("lorm.cache.result.joined_inserts");
  c.AddUnchecked(1);
}

}  // namespace

ResultCache::RangeKey ResultCache::KeyOf(double lo, double hi) {
  // Bit-exact keys: the services derive lo/hi deterministically from the
  // query's AttrValues, so equal ranges produce equal bit patterns.
  RangeKey k;
  std::memcpy(&k.lo_bits, &lo, sizeof lo);
  std::memcpy(&k.hi_bits, &hi, sizeof hi);
  return k;
}

std::size_t ResultCache::RangeKeyHash::operator()(const RangeKey& k) const {
  const std::uint64_t h =
      (k.lo_bits ^ (k.hi_bits * 0x9E3779B97F4A7C15ull)) * 0xBF58476D1CE4E5B9ull;
  return static_cast<std::size_t>(h ^ (h >> 32));
}

bool ResultCache::Lookup(AttrId attr, double lo, double hi,
                         std::vector<resource::ResourceInfo>& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto bucket = buckets_.find(attr);
  if (bucket != buckets_.end()) {
    const auto entry = bucket->second.find(KeyOf(lo, hi));
    if (entry != bucket->second.end()) {
      out = entry->second;
      TickResultHit();
      return true;
    }
  }
  TickResultMiss();
  return false;
}

void ResultCache::Store(AttrId attr, double lo, double hi,
                        const std::vector<resource::ResourceInfo>& matches) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  AttrBucket& bucket = buckets_[attr];
  if (bucket.size() >= kMaxRangesPerAttr) {
    TickResultEvictions(bucket.size());
    bucket.clear();
  }
  bucket[KeyOf(lo, hi)] = matches;
  TickResultInsert();
}

JoinedKey ResultCache::MakeJoinedKey(AttrId attr, double lo, double hi) {
  JoinedKey k;
  k.attr = attr;
  std::memcpy(&k.lo_bits, &lo, sizeof lo);
  std::memcpy(&k.hi_bits, &hi, sizeof hi);
  return k;
}

bool ResultCache::LookupJoined(
    const std::vector<JoinedKey>& keys, const std::vector<std::uint32_t>& order,
    std::vector<std::vector<resource::ResourceInfo>>& per_sub,
    std::vector<NodeAddr>& providers) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = joined_.find(keys);
  if (it == joined_.end()) {
    TickJoinedMiss();
    return false;
  }
  for (std::size_t j = 0; j < order.size(); ++j) {
    per_sub[order[j]] = it->second.per_sub[j];
  }
  providers = it->second.providers;
  TickJoinedHit(keys.size());
  return true;
}

void ResultCache::StoreJoined(
    const std::vector<JoinedKey>& keys, const std::vector<std::uint32_t>& order,
    const std::vector<std::vector<resource::ResourceInfo>>& per_sub,
    const std::vector<NodeAddr>& providers) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (joined_.size() >= kMaxJoined && !joined_.contains(keys)) {
    TickResultEvictions(joined_.size());
    joined_.clear();
  }
  JoinedEntry& e = joined_[keys];
  e.per_sub.resize(order.size());
  for (std::size_t j = 0; j < order.size(); ++j) {
    e.per_sub[j] = per_sub[order[j]];
  }
  e.providers = providers;
  TickJoinedInsert();
}

void ResultCache::InvalidateAttr(AttrId attr) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t dropped = 0;
  for (auto it = joined_.begin(); it != joined_.end();) {
    bool contains = false;
    for (const JoinedKey& k : it->first) contains |= k.attr == attr;
    if (contains) {
      TickResultEvictions(1);
      ++dropped;
      it = joined_.erase(it);
    } else {
      ++it;
    }
  }
  if (const auto bucket = buckets_.find(attr); bucket != buckets_.end()) {
    TickResultEvictions(bucket->second.size());
    dropped += bucket->second.size();
    buckets_.erase(bucket);
  }
  if (obs::FlightEnabled()) {
    obs::RecordFlight(obs::FlightEventKind::kCacheInvalidate, "result_cache",
                      kNoNode, dropped, attr);
  }
}

void ResultCache::InvalidateAll() {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t dropped = joined_.size();
  for (const auto& [attr, bucket] : buckets_) dropped += bucket.size();
  TickResultEvictions(dropped);
  buckets_.clear();
  joined_.clear();
  if (obs::FlightEnabled()) {
    obs::RecordFlight(obs::FlightEventKind::kCacheInvalidate, "result_cache",
                      kNoNode, dropped, ~std::uint64_t{0});
  }
}

}  // namespace lorm::cache
