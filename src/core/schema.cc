#include "core/schema.h"

namespace caqp {

Schema::Schema(std::vector<AttributeSpec> attrs) : attrs_(std::move(attrs)) {
  for (const AttributeSpec& a : attrs_) {
    CAQP_CHECK_GE(a.domain_size, 2u);
    CAQP_CHECK_LE(a.domain_size, 65536u);  // values are 16-bit
    CAQP_CHECK_GE(a.cost, 0.0);
  }
  CAQP_CHECK_LE(attrs_.size(), kMaxAttributes);
}

AttrId Schema::AddAttribute(const std::string& name, uint32_t domain_size,
                            double cost) {
  CAQP_CHECK_GE(domain_size, 2u);
  CAQP_CHECK_LE(domain_size, 65536u);  // values are 16-bit
  CAQP_CHECK_GE(cost, 0.0);
  CAQP_CHECK_LT(attrs_.size(), kMaxAttributes);
  attrs_.emplace_back(name, domain_size, cost);
  return static_cast<AttrId>(attrs_.size() - 1);
}

AttrId Schema::FindAttribute(const std::string& name) const {
  for (size_t i = 0; i < attrs_.size(); ++i) {
    if (attrs_[i].name == name) return static_cast<AttrId>(i);
  }
  return kInvalidAttr;
}

std::vector<ValueRange> Schema::FullRanges() const {
  std::vector<ValueRange> out;
  out.reserve(attrs_.size());
  for (size_t i = 0; i < attrs_.size(); ++i) {
    out.push_back(FullRange(static_cast<AttrId>(i)));
  }
  return out;
}

bool Schema::ValidRanges(const std::vector<ValueRange>& ranges) const {
  if (ranges.size() != attrs_.size()) return false;
  for (size_t i = 0; i < ranges.size(); ++i) {
    if (ranges[i].lo > ranges[i].hi) return false;
    if (ranges[i].hi >= attrs_[i].domain_size) return false;
  }
  return true;
}

bool Schema::ValidTuple(const Tuple& t) const {
  if (t.size() != attrs_.size()) return false;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i] >= attrs_[i].domain_size) return false;
  }
  return true;
}

bool Schema::operator==(const Schema& o) const {
  if (attrs_.size() != o.attrs_.size()) return false;
  for (size_t i = 0; i < attrs_.size(); ++i) {
    if (attrs_[i].name != o.attrs_[i].name ||
        attrs_[i].domain_size != o.attrs_[i].domain_size ||
        attrs_[i].cost != o.attrs_[i].cost) {
      return false;
    }
  }
  return true;
}

}  // namespace caqp
