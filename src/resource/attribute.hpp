// Attribute schemas and typed attribute values.
//
// The paper (§III) assumes "each resource is described by a set of attributes
// with globally known types denoted by a, and values/ranges or string
// description denoted by π_a" — e.g. "CPU=1000MHz" (numeric) or "OS=Linux"
// (string). Numeric values feed the locality-preserving hash directly;
// string values are ordered through a globally known enumeration, so both
// map to a totally ordered ordinal domain.
//
// An AttrValue is a plain 16-byte value: a kind plus either the number or a
// pointer to an interned string. AttrValue::Text stores each distinct
// string once, in a process-wide pool that is never freed, so a value stays
// valid for the life of the process (static destruction included), copies
// as a memcpy, and two texts are equal exactly when their pointers are. The
// pool grows only with the distinct strings callers pass (schema
// enumerations, parsed queries); numeric workloads never touch it.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/types.hpp"

namespace lorm::resource {

enum class ValueKind { kNumeric, kText };

class AttributeSchema;

/// A single attribute value: a number ("CPU = 1800 MHz") or a string
/// ("OS = Linux"). Values of the same kind are totally ordered; text order
/// is lexicographic, matching the ordinal order of a sorted enumeration.
class AttrValue {
 public:
  AttrValue() : kind_(ValueKind::kNumeric), num_(0) {}

  static AttrValue Number(double v);
  /// Interns `v` (see the file comment).
  static AttrValue Text(std::string v);

  ValueKind kind() const { return kind_; }
  double num() const {
    if (kind_ != ValueKind::kNumeric) [[unlikely]] NotNumeric();
    return num_;
  }
  const std::string& text() const;

  /// Values of different kinds are unequal; texts compare by pointer.
  bool operator==(const AttrValue& o) const {
    if (kind_ != o.kind_) return false;
    return kind_ == ValueKind::kNumeric ? num_ == o.num_ : text_ == o.text_;
  }
  /// Total order; comparing different kinds throws.
  bool operator<(const AttrValue& o) const;
  bool operator<=(const AttrValue& o) const { return !(o < *this); }

  std::string ToString() const;

 private:
  [[noreturn]] static void NotNumeric();

  ValueKind kind_;
  union {
    double num_;
    const std::string* text_;  ///< into the intern pool
  };
};

static_assert(std::is_trivially_copyable_v<AttrValue>);
static_assert(sizeof(AttrValue) == 16);

/// Globally known type of one attribute: its name, value kind and ordered
/// value domain (numeric interval or sorted enumeration).
class AttributeSchema {
 public:
  static AttributeSchema Numeric(std::string name, double min_value,
                                 double max_value);
  /// `values` is sorted internally so ordinal order == lexicographic order.
  static AttributeSchema Text(std::string name, std::vector<std::string> values);

  const std::string& name() const { return name_; }
  ValueKind kind() const { return kind_; }

  /// Monotone map of a value into the ordinal domain [ordinal_min,
  /// ordinal_max]: identity for numbers, enumeration index for strings.
  double OrdinalOf(const AttrValue& v) const;
  double ordinal_min() const { return min_; }
  double ordinal_max() const { return max_; }

  /// Inverse-ish of OrdinalOf: builds a value from an ordinal (used by
  /// workload generators; text ordinals are rounded to the nearest entry).
  AttrValue ValueAt(double ordinal) const;

  const std::vector<std::string>& enumeration() const { return enum_; }

 private:
  AttributeSchema() = default;

  std::string name_;
  ValueKind kind_ = ValueKind::kNumeric;
  double min_ = 0;
  double max_ = 1;
  std::vector<std::string> enum_;
};

/// Registry of the globally known attribute types; AttrIds are dense indices
/// into it. Shared (by const reference) by every discovery system in an
/// experiment so all of them see identical schemas.
class AttributeRegistry {
 public:
  AttrId RegisterNumeric(std::string name, double min_value, double max_value);
  AttrId RegisterText(std::string name, std::vector<std::string> values);

  const AttributeSchema& Get(AttrId id) const;
  std::optional<AttrId> Find(std::string_view name) const;
  std::size_t size() const { return schemas_.size(); }

 private:
  AttrId Add(AttributeSchema schema);

  std::vector<AttributeSchema> schemas_;
};

}  // namespace lorm::resource
