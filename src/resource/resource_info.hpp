// Resource information tuples and value ranges.
//
// Paper §III: "The available resource information of node i is represented
// in the form of ⟨a, δπ_a, ip_addr(i)⟩". A ResourceInfo is one such tuple —
// one advertised (attribute, value) of one provider node.
#pragma once

#include <string>
#include <type_traits>

#include "common/types.hpp"
#include "resource/attribute.hpp"

namespace lorm::resource {

/// One advertised ⟨attribute, value, provider⟩ tuple: a plain value that
/// directories, sub-query match lists and the result cache copy as bytes.
struct ResourceInfo {
  AttrId attr = 0;
  AttrValue value;
  NodeAddr provider = kNoNode;

  bool operator==(const ResourceInfo& o) const {
    return attr == o.attr && value == o.value && provider == o.provider;
  }

  std::string ToString(const AttributeRegistry& registry) const;
};

static_assert(std::is_trivially_copyable_v<ResourceInfo>);
static_assert(sizeof(ResourceInfo) == 32);

/// Inclusive value range [lo, hi]; a point query has lo == hi.
struct ValueRange {
  AttrValue lo;
  AttrValue hi;

  static ValueRange Point(AttrValue v);
  static ValueRange Between(AttrValue lo, AttrValue hi);  ///< throws if hi < lo
  /// "attribute >= v": [v, schema max].
  static ValueRange AtLeast(const AttributeSchema& schema, AttrValue v);
  /// "attribute <= v": [schema min, v].
  static ValueRange AtMost(const AttributeSchema& schema, AttrValue v);

  bool IsPoint() const { return lo == hi; }
  bool Contains(const AttrValue& v) const { return lo <= v && v <= hi; }
};

}  // namespace lorm::resource
