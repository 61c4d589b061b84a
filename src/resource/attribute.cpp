#include "resource/attribute.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <sstream>
#include <unordered_set>

#include "common/error.hpp"

namespace lorm::resource {
namespace {

/// The one pooled copy of `v`. Set elements never move, and the pool is
/// never destroyed, so the pointer stays valid for the life of the process.
const std::string* Intern(std::string v) {
  struct Pool {
    std::mutex mu;
    std::unordered_set<std::string> texts;
  };
  static Pool* const pool = new Pool;
  std::lock_guard<std::mutex> lock(pool->mu);
  return &*pool->texts.insert(std::move(v)).first;
}

}  // namespace

AttrValue AttrValue::Number(double v) {
  AttrValue a;
  a.kind_ = ValueKind::kNumeric;
  a.num_ = v;
  return a;
}

AttrValue AttrValue::Text(std::string v) {
  AttrValue a;
  a.kind_ = ValueKind::kText;
  a.text_ = Intern(std::move(v));
  return a;
}

void AttrValue::NotNumeric() {
  detail::RaiseInvariant("kind_ == ValueKind::kNumeric", __FILE__, __LINE__,
                         "num() on text value");
}

const std::string& AttrValue::text() const {
  LORM_CHECK_MSG(kind_ == ValueKind::kText, "text() on numeric value");
  return *text_;
}

bool AttrValue::operator<(const AttrValue& o) const {
  LORM_CHECK_MSG(kind_ == o.kind_, "comparing values of different kinds");
  return kind_ == ValueKind::kNumeric ? num_ < o.num_ : *text_ < *o.text_;
}

std::string AttrValue::ToString() const {
  if (kind_ == ValueKind::kText) return *text_;
  std::ostringstream os;
  os << num_;
  return os.str();
}

AttributeSchema AttributeSchema::Numeric(std::string name, double min_value,
                                         double max_value) {
  if (!(max_value > min_value)) {
    throw ConfigError("numeric attribute needs max > min");
  }
  AttributeSchema s;
  s.name_ = std::move(name);
  s.kind_ = ValueKind::kNumeric;
  s.min_ = min_value;
  s.max_ = max_value;
  return s;
}

AttributeSchema AttributeSchema::Text(std::string name,
                                      std::vector<std::string> values) {
  if (values.empty()) throw ConfigError("text attribute needs values");
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  AttributeSchema s;
  s.name_ = std::move(name);
  s.kind_ = ValueKind::kText;
  s.min_ = 0;
  s.max_ = static_cast<double>(values.size() - 1);
  if (values.size() == 1) s.max_ = 1;  // keep a nonempty ordinal interval
  s.enum_ = std::move(values);
  return s;
}

double AttributeSchema::OrdinalOf(const AttrValue& v) const {
  if (kind_ == ValueKind::kNumeric) {
    return v.num();
  }
  const auto it = std::lower_bound(enum_.begin(), enum_.end(), v.text());
  LORM_CHECK_MSG(it != enum_.end() && *it == v.text(),
                 "text value not in attribute enumeration: " + v.text());
  return static_cast<double>(it - enum_.begin());
}

AttrValue AttributeSchema::ValueAt(double ordinal) const {
  if (kind_ == ValueKind::kNumeric) {
    return AttrValue::Number(std::clamp(ordinal, min_, max_));
  }
  auto idx = static_cast<std::ptrdiff_t>(std::llround(ordinal));
  idx = std::clamp<std::ptrdiff_t>(
      idx, 0, static_cast<std::ptrdiff_t>(enum_.size()) - 1);
  return AttrValue::Text(enum_[static_cast<std::size_t>(idx)]);
}

AttrId AttributeRegistry::RegisterNumeric(std::string name, double min_value,
                                          double max_value) {
  return Add(AttributeSchema::Numeric(std::move(name), min_value, max_value));
}

AttrId AttributeRegistry::RegisterText(std::string name,
                                       std::vector<std::string> values) {
  return Add(AttributeSchema::Text(std::move(name), std::move(values)));
}

AttrId AttributeRegistry::Add(AttributeSchema schema) {
  if (Find(schema.name()).has_value()) {
    throw ConfigError("duplicate attribute name: " + schema.name());
  }
  schemas_.push_back(std::move(schema));
  return static_cast<AttrId>(schemas_.size() - 1);
}

const AttributeSchema& AttributeRegistry::Get(AttrId id) const {
  LORM_CHECK_MSG(id < schemas_.size(), "attribute id out of range");
  return schemas_[id];
}

std::optional<AttrId> AttributeRegistry::Find(std::string_view name) const {
  for (std::size_t i = 0; i < schemas_.size(); ++i) {
    if (schemas_[i].name() == name) return static_cast<AttrId>(i);
  }
  return std::nullopt;
}

}  // namespace lorm::resource
