// Deterministic pseudo-random number generation and the distributions used by
// the paper's workloads.
//
// Every experiment in the repository is seeded explicitly, so that each
// figure regenerates identically from run to run. The generator is
// xoshiro256** (public-domain algorithm by Blackman & Vigna), seeded through
// splitmix64 — fast, high quality, and independent of libstdc++'s unspecified
// std::*_distribution implementations (which may differ across toolchains).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace lorm {

/// splitmix64 step; used for seeding and cheap hash mixing. Inline: a
/// full-ring join's salted id draws call it through MixHashes thousands of
/// times.
inline std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// xoshiro256** engine with explicit seeding.
class Rng {
 public:
  /// Seeds deterministically from a single 64-bit value.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Uniform 64-bit value.
  std::uint64_t NextU64();

  /// Uniform in [0, bound). `bound` must be > 0. Uses rejection sampling, so
  /// the result is exactly uniform.
  std::uint64_t NextBelow(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t NextInt(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  /// Bernoulli trial.
  bool NextBool(double p_true = 0.5);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(NextBelow(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Samples `count` distinct integers from [0, universe) in random order.
  std::vector<std::uint64_t> SampleWithoutReplacement(std::uint64_t universe,
                                                      std::size_t count);

  /// Forks an independent, deterministic child stream. Used to give each
  /// subsystem (workload, churn, queries) its own stream so adding draws in
  /// one subsystem does not perturb the others.
  Rng Fork();

 private:
  std::array<std::uint64_t, 4> s_;
};

/// Exponential variate with rate `lambda` (mean 1/lambda); inter-arrival
/// times of the Poisson churn process of paper §V-C.
double SampleExponential(Rng& rng, double lambda);

/// Bounded Pareto distribution on [lo, hi] with shape `alpha`.
///
/// The paper (§V) generates both advertised and requested resource values
/// from a Bounded Pareto. Sampling is by inversion of the CDF
///   F(x) = (1 - L^a x^-a) / (1 - (L/H)^a).
class BoundedPareto {
 public:
  BoundedPareto(double shape, double lo, double hi);

  double Sample(Rng& rng) const;

  /// CDF at x (clamped outside [lo, hi]). Exposed because the
  /// CDF-equalizing locality-preserving hash needs it.
  double Cdf(double x) const;

  /// Inverse CDF (quantile function) for u in [0, 1].
  double Quantile(double u) const;

  double shape() const { return shape_; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }

 private:
  double shape_;
  double lo_;
  double hi_;
  double norm_;  // 1 - (L/H)^alpha
};

/// Zipf distribution over ranks {1..n} with exponent `s`; used to model
/// skewed attribute popularity in extension experiments.
class Zipf {
 public:
  Zipf(std::size_t n, double s);

  /// Returns a rank in [1, n].
  std::size_t Sample(Rng& rng) const;

  std::size_t n() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace lorm
