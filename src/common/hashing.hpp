// Key-derivation functions of the DHT layer.
//
// Two hash families appear in the paper (§III):
//
//  * H  — a *consistent* hash (SHA-1 based, as in Chord/Cycloid): spreads
//    attribute names uniformly over an identifier space. Order-destroying.
//  * 𝓗 — a *locality-preserving* hash (MAAN's construction): maps attribute
//    values into an identifier space monotonically, so that value ranges map
//    to contiguous ID segments and range queries become ring walks.
//
// Both are expressed over an abstract `space_bits`-sized ID space and are
// reduced to concrete Chord keys / Cycloid indices by the overlay adapters.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "common/random.hpp"

namespace lorm {

/// Consistent hashing into a 2^bits identifier space (bits in [1, 64]).
class ConsistentHash {
 public:
  explicit ConsistentHash(unsigned bits);

  /// Hash of an arbitrary string key (attribute names, node names).
  std::uint64_t operator()(std::string_view key) const;

  /// Hash of a 64-bit key (node addresses).
  std::uint64_t operator()(std::uint64_t key) const;

  unsigned bits() const { return bits_; }
  std::uint64_t space() const { return space_; }  ///< 2^bits (0 means 2^64)

 private:
  std::uint64_t Reduce(std::uint64_t h) const;

  unsigned bits_;
  std::uint64_t space_;
};

/// Monotone map from a value domain [lo, hi] onto the ID space [0, 2^bits).
///
/// `Linear` is MAAN's published construction
///     𝓗(v) = (v - lo) / (hi - lo) · (2^bits - 1),
/// which preserves order but inherits any skew of the value distribution.
///
/// `CdfEqualized` composes the linear map with a supplied CDF, yielding
/// uniform occupancy when values follow that distribution (the load-balance
/// ablation of DESIGN.md §5.2).
class LocalityPreservingHash {
 public:
  using Cdf = std::function<double(double)>;

  /// Linear construction.
  LocalityPreservingHash(unsigned bits, double lo, double hi);

  /// CDF-equalizing construction; `cdf` must be monotone with cdf(lo)=0 and
  /// cdf(hi)=1 (values outside are clamped).
  LocalityPreservingHash(unsigned bits, double lo, double hi, Cdf cdf);

  /// Maps a value to an ID. Monotone: v1 <= v2 implies (*this)(v1) <= (*this)(v2).
  std::uint64_t operator()(double value) const;

  unsigned bits() const { return bits_; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }

 private:
  unsigned bits_;
  double lo_;
  double hi_;
  std::uint64_t max_id_;
  Cdf cdf_;  // empty => linear
};

/// Deterministic 64-bit mix of two hashes; used to derive per-ring keys in
/// Mercury (one ring per attribute) without correlating their placements,
/// and once per salted draw of a joiner's id (chord::HashedId), hence inline.
inline std::uint64_t MixHashes(std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = a ^ (b + 0x9E3779B97F4A7C15ull + (a << 6) + (a >> 2));
  return SplitMix64(state);
}

}  // namespace lorm
