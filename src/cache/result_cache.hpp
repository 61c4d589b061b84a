// Query-result cache for the discovery services.
//
// Keyed on (attribute, ordinal range): a sub-query that resolved completely
// stores its post-dedup match list; an identical later sub-query is served
// from the cache with zero routing hops and zero directory probes. The root
// of a range is a function of the range alone — never of the requester — so
// a cached answer is exactly what a fresh walk by any requester would find.
//
// The invalidation contract keeps cached answers from ever diverging from
// Directory ground truth: the owning service calls InvalidateAttr on every
// re-advertisement of that attribute and InvalidateAll once per membership
// event (join/leave/crash can re-home any arc) and on soft-state expiry
// (ExpireBefore). Stale-by-construction is impossible; the cache trades hit
// rate for that guarantee.
//
// Counters (interned on first use, so cache-off runs leave the registry
// untouched): lorm.cache.result.{hits,misses,inserts,evictions} — evictions
// count individual cached ranges dropped by invalidation or capacity.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "resource/resource_info.hpp"

namespace lorm::cache {

/// Canonical identity of one sub-query: attribute plus the bit-exact
/// ordinal range. Whole-query cache keys are *sorted vectors* of these, so
/// two MultiQueries listing the same sub-queries in different orders — e.g.
/// the planner's selectivity-ordered execution vs the original — share one
/// entry.
struct JoinedKey {
  AttrId attr = 0;
  std::uint64_t lo_bits = 0;
  std::uint64_t hi_bits = 0;
  friend bool operator==(const JoinedKey&, const JoinedKey&) = default;
  friend auto operator<=>(const JoinedKey&, const JoinedKey&) = default;
};

class ResultCache {
 public:
  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  /// Copies the cached matches for (attr, [lo, hi]) into `out` and returns
  /// true, or returns false (and ticks a miss) when absent. Only call when
  /// enabled.
  bool Lookup(AttrId attr, double lo, double hi,
              std::vector<resource::ResourceInfo>& out) const;

  /// Records the complete, post-dedup match list of a fully resolved
  /// sub-query. No-op when disabled.
  void Store(AttrId attr, double lo, double hi,
             const std::vector<resource::ResourceInfo>& matches);

  static JoinedKey MakeJoinedKey(AttrId attr, double lo, double hi);

  /// Whole-query entry, keyed on the *sorted* vector of sub-query keys so
  /// execution order never matters. `keys` must already be sorted (see
  /// planner.hpp's CanonicalSubKeys); the entry keeps its per-sub match
  /// lists in the same canonical order, and `order[j]` is the query-order
  /// index of canonical sub-query j. A hit copies list j into
  /// per_sub[order[j]] (per_sub holds keys.size() lists) and the providers
  /// into `providers`. It ticks lorm.cache.result.hits once per sub-query —
  /// a joined hit answers exactly the sub-queries a per-sub scan would
  /// have — plus its own lorm.cache.result.joined_hits.
  bool LookupJoined(const std::vector<JoinedKey>& keys,
                    const std::vector<std::uint32_t>& order,
                    std::vector<std::vector<resource::ResourceInfo>>& per_sub,
                    std::vector<NodeAddr>& providers) const;

  /// Stores a fully resolved query (every sub-query executed, none failed),
  /// taking canonical list j from per_sub[order[j]]. No-op when disabled.
  void StoreJoined(
      const std::vector<JoinedKey>& keys,
      const std::vector<std::uint32_t>& order,
      const std::vector<std::vector<resource::ResourceInfo>>& per_sub,
      const std::vector<NodeAddr>& providers);

  /// Drops every cached range of `attr` (a new advertisement changed its
  /// ground truth).
  void InvalidateAttr(AttrId attr);

  /// Drops everything (membership change, expiry).
  void InvalidateAll();

 private:
  struct RangeKey {
    std::uint64_t lo_bits = 0;
    std::uint64_t hi_bits = 0;
    friend bool operator==(const RangeKey&, const RangeKey&) = default;
  };
  struct RangeKeyHash {
    std::size_t operator()(const RangeKey& k) const;
  };
  using AttrBucket = std::unordered_map<RangeKey, std::vector<resource::ResourceInfo>,
                                        RangeKeyHash>;

  static RangeKey KeyOf(double lo, double hi);

  /// Distinct ranges cached per attribute before the bucket is recycled;
  /// bounds memory against adversarial range diversity.
  static constexpr std::size_t kMaxRangesPerAttr = 512;

  struct JoinedEntry {
    std::vector<std::vector<resource::ResourceInfo>> per_sub;  ///< canonical
    std::vector<NodeAddr> providers;
  };
  /// Distinct whole-query entries before the joined map is recycled.
  static constexpr std::size_t kMaxJoined = 256;

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::unordered_map<AttrId, AttrBucket> buckets_;
  // std::map keeps iteration deterministic for the attr-scan in
  // InvalidateAttr; joined keys are tiny vectors, compares are cheap.
  std::map<std::vector<JoinedKey>, JoinedEntry> joined_;
};

}  // namespace lorm::cache
