#include "common/random.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace lorm {
namespace {

inline std::uint64_t Rotl64(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(sm);
  // All-zero state is the one invalid state for xoshiro.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

std::uint64_t Rng::NextU64() {
  const std::uint64_t result = Rotl64(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl64(s_[3], 45);
  return result;
}

std::uint64_t Rng::NextBelow(std::uint64_t bound) {
  LORM_CHECK_MSG(bound > 0, "NextBelow(0)");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = NextU64();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::NextInt(std::int64_t lo, std::int64_t hi) {
  LORM_CHECK_MSG(lo <= hi, "NextInt: lo > hi");
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(NextU64());
  }
  return lo + static_cast<std::int64_t>(NextBelow(span));
}

double Rng::NextDouble() {
  // 53 high bits -> [0,1) with full double precision.
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::NextDouble(double lo, double hi) {
  LORM_CHECK_MSG(lo <= hi, "NextDouble: lo > hi");
  return lo + (hi - lo) * NextDouble();
}

bool Rng::NextBool(double p_true) { return NextDouble() < p_true; }

std::vector<std::uint64_t> Rng::SampleWithoutReplacement(std::uint64_t universe,
                                                         std::size_t count) {
  LORM_CHECK_MSG(count <= universe, "sample larger than universe");
  std::vector<std::uint64_t> out;
  out.reserve(count);
  if (count * 3 >= universe) {
    // Dense: shuffle a full index vector prefix.
    std::vector<std::uint64_t> all(universe);
    for (std::uint64_t i = 0; i < universe; ++i) all[i] = i;
    Shuffle(all);
    all.resize(count);
    return all;
  }
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(count * 2);
  while (out.size() < count) {
    const std::uint64_t v = NextBelow(universe);
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

Rng Rng::Fork() { return Rng(NextU64()); }

double SampleExponential(Rng& rng, double lambda) {
  LORM_CHECK_MSG(lambda > 0, "exponential rate must be positive");
  // Avoid log(0): NextDouble() is in [0,1), so 1-u is in (0,1].
  const double u = rng.NextDouble();
  return -std::log1p(-u) / lambda;
}

BoundedPareto::BoundedPareto(double shape, double lo, double hi)
    : shape_(shape), lo_(lo), hi_(hi) {
  if (!(shape > 0) || !(lo > 0) || !(hi > lo)) {
    throw ConfigError("BoundedPareto requires shape>0 and 0<lo<hi");
  }
  norm_ = 1.0 - std::pow(lo_ / hi_, shape_);
}

double BoundedPareto::Sample(Rng& rng) const { return Quantile(rng.NextDouble()); }

double BoundedPareto::Cdf(double x) const {
  if (x <= lo_) return 0.0;
  if (x >= hi_) return 1.0;
  return (1.0 - std::pow(lo_ / x, shape_)) / norm_;
}

double BoundedPareto::Quantile(double u) const {
  if (u <= 0.0) return lo_;
  if (u >= 1.0) return hi_;
  // Invert F: x = L / (1 - u * norm)^(1/alpha).
  const double x = lo_ / std::pow(1.0 - u * norm_, 1.0 / shape_);
  return std::clamp(x, lo_, hi_);
}

Zipf::Zipf(std::size_t n, double s) {
  if (n == 0) throw ConfigError("Zipf requires n > 0");
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against rounding
}

std::size_t Zipf::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin()) + 1;
}

}  // namespace lorm
