#include "discovery/join.hpp"

#include <algorithm>
#include <bit>
#include <string>

namespace lorm::discovery {
namespace {

/// An unsigned integer in the value's order: key(a) < key(b) implies
/// a < b, and equal numbers get equal keys. Equal keys of two texts only
/// say that their first eight bytes agree.
std::uint64_t ValueKey(const resource::AttrValue& v) {
  if (v.kind() == resource::ValueKind::kNumeric) {
    double d = v.num();
    if (d == 0.0) d = 0.0;  // -0 == +0, so both take +0's key
    const auto bits = std::bit_cast<std::uint64_t>(d);
    constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
    return (bits & kSign) != 0 ? ~bits : bits | kSign;
  }
  // std::string orders bytes as unsigned char, shorter prefixes first.
  const std::string& t = v.text();
  std::uint64_t key = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    key <<= 8;
    if (i < t.size()) key |= static_cast<unsigned char>(t[i]);
  }
  return key;
}

}  // namespace

void ProvidersOf(const std::vector<resource::ResourceInfo>& matches,
                 std::vector<NodeAddr>& out) {
  out.clear();
  out.reserve(matches.size());
  for (const auto& info : matches) out.push_back(info.provider);
  if (!std::is_sorted(out.begin(), out.end())) {
    std::sort(out.begin(), out.end());
  }
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

void IntersectSorted(std::vector<NodeAddr>& acc,
                     const std::vector<NodeAddr>& cur,
                     std::vector<NodeAddr>& tmp) {
  tmp.clear();
  // Gallop through the larger side: for each element of the smaller set,
  // advance a lower_bound cursor in the larger. Output order follows the
  // sorted inputs, so the result equals std::set_intersection's.
  const std::vector<NodeAddr>& small = acc.size() <= cur.size() ? acc : cur;
  const std::vector<NodeAddr>& large = acc.size() <= cur.size() ? cur : acc;
  auto it = large.begin();
  for (const NodeAddr x : small) {
    it = std::lower_bound(it, large.end(), x);
    if (it == large.end()) break;
    if (*it == x) {
      tmp.push_back(x);
      ++it;
    }
  }
  acc.assign(tmp.begin(), tmp.end());
}

std::vector<NodeAddr> JoinProviders(
    const std::vector<std::vector<resource::ResourceInfo>>& per_sub,
    JoinScratch& scratch) {
  if (per_sub.empty()) return {};
  ProvidersOf(per_sub.front(), scratch.acc);
  for (std::size_t i = 1; i < per_sub.size() && !scratch.acc.empty(); ++i) {
    ProvidersOf(per_sub[i], scratch.cur);
    IntersectSorted(scratch.acc, scratch.cur, scratch.tmp);
  }
  return std::vector<NodeAddr>(scratch.acc.begin(), scratch.acc.end());
}

std::vector<NodeAddr> JoinProviders(
    const std::vector<std::vector<resource::ResourceInfo>>& per_sub) {
  JoinScratch scratch;
  return JoinProviders(per_sub, scratch);
}

void DedupMatches(const std::vector<resource::ResourceInfo>& raw,
                  std::vector<MatchKey>& keys,
                  std::vector<resource::ResourceInfo>& out) {
  keys.clear();
  keys.reserve(raw.size());
  for (std::uint32_t i = 0; i < raw.size(); ++i) {
    const resource::ResourceInfo& m = raw[i];
    keys.push_back({(std::uint64_t{m.attr} << 32) | m.provider,
                    ValueKey(m.value), i});
  }
  // Equal keys compare the values themselves: equal numbers, or texts that
  // share their first eight bytes.
  std::sort(keys.begin(), keys.end(),
            [&raw](const MatchKey& a, const MatchKey& b) {
              if (a.group != b.group) return a.group < b.group;
              if (a.value != b.value) return a.value < b.value;
              return raw[a.index].value < raw[b.index].value;
            });
  keys.erase(std::unique(keys.begin(), keys.end(),
                         [&raw](const MatchKey& a, const MatchKey& b) {
                           return a.group == b.group && a.value == b.value &&
                                  raw[a.index].value == raw[b.index].value;
                         }),
             keys.end());
  out.clear();
  out.reserve(keys.size());
  for (const MatchKey& k : keys) out.push_back(raw[k.index]);
}

void DedupMatches(std::vector<resource::ResourceInfo>& matches) {
  std::vector<MatchKey> keys;
  std::vector<resource::ResourceInfo> distinct;
  DedupMatches(matches, keys, distinct);
  std::move(distinct.begin(), distinct.end(), matches.begin());
  matches.erase(matches.begin() + static_cast<std::ptrdiff_t>(distinct.size()),
                matches.end());
}

}  // namespace lorm::discovery
