#include "common/hashing.hpp"

#include <algorithm>
#include <cmath>

#include "common/sha1.hpp"

namespace lorm {

ConsistentHash::ConsistentHash(unsigned bits) : bits_(bits) {
  if (bits == 0 || bits > 64) {
    throw ConfigError("ConsistentHash bits must be in [1, 64]");
  }
  space_ = bits == 64 ? 0 : (std::uint64_t{1} << bits);
}

std::uint64_t ConsistentHash::Reduce(std::uint64_t h) const {
  return bits_ == 64 ? h : (h & (space_ - 1));
}

std::uint64_t ConsistentHash::operator()(std::string_view key) const {
  return Reduce(Sha1::Hash64(key));
}

std::uint64_t ConsistentHash::operator()(std::uint64_t key) const {
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>(key >> (8 * i));
  }
  return Reduce(Sha1::Hash64(std::string_view(buf, sizeof buf)));
}

LocalityPreservingHash::LocalityPreservingHash(unsigned bits, double lo,
                                               double hi)
    : LocalityPreservingHash(bits, lo, hi, Cdf{}) {}

LocalityPreservingHash::LocalityPreservingHash(unsigned bits, double lo,
                                               double hi, Cdf cdf)
    : bits_(bits), lo_(lo), hi_(hi), cdf_(std::move(cdf)) {
  if (bits == 0 || bits > 64) {
    throw ConfigError("LocalityPreservingHash bits must be in [1, 64]");
  }
  if (!(hi > lo)) {
    throw ConfigError("LocalityPreservingHash requires hi > lo");
  }
  max_id_ = bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

std::uint64_t LocalityPreservingHash::operator()(double value) const {
  double u;
  if (cdf_) {
    u = std::clamp(cdf_(value), 0.0, 1.0);
  } else {
    u = std::clamp((value - lo_) / (hi_ - lo_), 0.0, 1.0);
  }
  // Round-to-nearest keeps the top of the domain on max_id_ exactly.
  const double scaled = u * static_cast<double>(max_id_);
  return static_cast<std::uint64_t>(std::llround(scaled));
}

}  // namespace lorm
