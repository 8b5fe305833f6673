// Schema: the set of attributes available in an acquisitional system, their
// discretized domain sizes and per-attribute acquisition costs.
//
// The acquisition cost C_i (paper Section 2.1) is the energy / latency /
// computation paid the first time attribute X_i is read while evaluating one
// tuple; the paper's datasets use cost 100 for expensive sensor readings
// (light, temperature, humidity) and cost 1 for locally-available values
// (node id, time of day, battery voltage).

#ifndef CAQP_CORE_SCHEMA_H_
#define CAQP_CORE_SCHEMA_H_

#include <string>
#include <vector>

#include "core/types.h"

namespace caqp {

/// Metadata for one attribute.
struct AttributeSpec {
  std::string name;
  /// Domain size K_i: values are in [0, domain_size).
  uint32_t domain_size = 2;
  /// Acquisition cost C_i in abstract cost units (paper: energy units).
  double cost = 1.0;

  AttributeSpec() = default;
  AttributeSpec(std::string n, uint32_t k, double c)
      : name(std::move(n)), domain_size(k), cost(c) {}
};

/// Immutable-after-construction attribute catalog. All planner, estimator and
/// executor components reference attributes by AttrId into one Schema.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<AttributeSpec> attrs);

  /// Appends an attribute; returns its id. Domain size must be >= 2 (a
  /// 1-value attribute carries no information and breaks split enumeration)
  /// and <= 65536 (values are 16-bit).
  AttrId AddAttribute(const std::string& name, uint32_t domain_size,
                      double cost);

  size_t num_attributes() const { return attrs_.size(); }
  const AttributeSpec& attribute(AttrId id) const {
    CAQP_DCHECK(id < attrs_.size());
    return attrs_[id];
  }
  const std::string& name(AttrId id) const { return attribute(id).name; }
  uint32_t domain_size(AttrId id) const { return attribute(id).domain_size; }
  double cost(AttrId id) const { return attribute(id).cost; }

  /// Looks up an attribute by name; returns kInvalidAttr if absent.
  AttrId FindAttribute(const std::string& name) const;

  /// The full range [0, K_i - 1] for attribute id.
  ValueRange FullRange(AttrId id) const {
    return ValueRange{0, static_cast<Value>(domain_size(id) - 1)};
  }

  /// One full range per attribute: the root subproblem of the planners.
  std::vector<ValueRange> FullRanges() const;

  /// True if `ranges` has one entry per attribute and each is within domain.
  bool ValidRanges(const std::vector<ValueRange>& ranges) const;

  /// True if the tuple has one in-domain value per attribute.
  bool ValidTuple(const Tuple& t) const;

  bool operator==(const Schema& o) const;

 private:
  std::vector<AttributeSpec> attrs_;
};

}  // namespace caqp

#endif  // CAQP_CORE_SCHEMA_H_
