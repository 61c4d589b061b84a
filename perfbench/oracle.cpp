#include <algorithm>

#include "bench.hpp"

namespace perfbench {

Oracle::Oracle(const lorm::resource::AttributeRegistry& registry)
    : registry_(&registry), by_attr_(registry.size()) {}

void Oracle::Add(const lorm::resource::ResourceInfo& info) {
  auto& v = by_attr_.at(info.attr);
  const Tuple t{registry_->Get(info.attr).OrdinalOf(info.value), info.provider};
  v.insert(std::upper_bound(v.begin(), v.end(), t.ordinal,
                            [](double x, const Tuple& e) { return x < e.ordinal; }),
           t);
}

void Oracle::Leave(NodeAddr provider) {
  for (auto& v : by_attr_) {
    std::erase_if(v, [&](const Tuple& t) { return t.provider == provider; });
  }
}

std::vector<NodeAddr> Oracle::Answer(const lorm::resource::MultiQuery& q) const {
  std::vector<NodeAddr> acc;
  std::vector<NodeAddr> cur;
  for (std::size_t i = 0; i < q.subs.size(); ++i) {
    const auto& sub = q.subs[i];
    const auto& schema = registry_->Get(sub.attr);
    const double lo = schema.OrdinalOf(sub.range.lo);
    const double hi = schema.OrdinalOf(sub.range.hi);
    const auto& v = by_attr_.at(sub.attr);
    cur.clear();
    for (auto it = std::lower_bound(
             v.begin(), v.end(), lo,
             [](const Tuple& e, double x) { return e.ordinal < x; });
         it != v.end() && it->ordinal <= hi; ++it) {
      cur.push_back(it->provider);
    }
    std::sort(cur.begin(), cur.end());
    cur.erase(std::unique(cur.begin(), cur.end()), cur.end());
    if (i == 0) {
      acc.swap(cur);
    } else {
      std::vector<NodeAddr> both;
      std::set_intersection(acc.begin(), acc.end(), cur.begin(), cur.end(),
                            std::back_inserter(both));
      acc.swap(both);
    }
  }
  return acc;
}

}  // namespace perfbench
