#include "opt/uncertainty.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"
#include "fault/fault.h"
#include "obs/calibration.h"

namespace caqp {
namespace opt {

namespace {

double Clamp(double v, double lo, double hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

double Clamp01(double v) { return Clamp(v, 0.0, 1.0); }

}  // namespace

UncertaintyBox UncertaintyBox::Uniform(double eps) {
  UncertaintyBox box;
  eps = Clamp01(eps);
  for (size_t a = 0; a < kMaxAttributes; ++a) {
    box.shift_lo[a] = -eps;
    box.shift_hi[a] = eps;
  }
  return box;
}

UncertaintyBox UncertaintyBox::FromCalibration(
    const obs::CalibrationReport& report, double scale, double cap,
    uint64_t min_evals) {
  UncertaintyBox box;
  cap = Clamp01(cap);
  for (const obs::AttrCalibration& a : report.attrs) {
    if (a.attr == kInvalidAttr ||
        static_cast<size_t>(a.attr) >= kMaxAttributes) {
      continue;
    }
    if (a.evals < min_evals) continue;
    const double d = Clamp(scale * a.signed_drift(), -cap, cap);
    const size_t i = static_cast<size_t>(a.attr);
    // Directional: the interval spans from "no drift" to "exactly the drift
    // we measured", so the box hedges the move we observed without also
    // hedging the (unobserved) opposite move.
    box.shift_lo[i] = std::min(0.0, d);
    box.shift_hi[i] = std::max(0.0, d);
  }
  return box;
}

UncertaintyBox UncertaintyBox::FromFaultSpec(const FaultSpec& spec, double eps,
                                             double max_rate) {
  UncertaintyBox box;
  max_rate = Clamp(max_rate, 0.0, 0.99);
  for (size_t a = 0; a < kMaxAttributes; ++a) {
    const double r = spec.TransientFor(static_cast<AttrId>(a));
    if (r <= 0.0 && eps <= 0.0) continue;
    box.fault_lo[a] = Clamp(r - eps, 0.0, max_rate);
    box.fault_hi[a] = Clamp(r + eps, 0.0, max_rate);
  }
  return box;
}

void UncertaintyBox::MergeFrom(const UncertaintyBox& other) {
  for (size_t a = 0; a < kMaxAttributes; ++a) {
    shift_lo[a] = std::min(shift_lo[a], other.shift_lo[a]);
    shift_hi[a] = std::max(shift_hi[a], other.shift_hi[a]);
    fault_lo[a] = std::min(fault_lo[a], other.fault_lo[a]);
    fault_hi[a] = std::max(fault_hi[a], other.fault_hi[a]);
  }
}

double UncertaintyBox::max_width() const {
  double w = 0.0;
  for (size_t a = 0; a < kMaxAttributes; ++a) {
    w = std::max(w, std::max(shift_width(a), fault_width(a)));
  }
  return w;
}

bool UncertaintyBox::degenerate(double tol) const {
  for (size_t a = 0; a < kMaxAttributes; ++a) {
    if (std::abs(shift_lo[a]) > tol || std::abs(shift_hi[a]) > tol) {
      return false;
    }
    // A degenerate fault interval at a nonzero rate still perturbs costs
    // relative to the (fault-free) point estimates, so only zero counts.
    if (std::abs(fault_lo[a]) > tol || std::abs(fault_hi[a]) > tol) {
      return false;
    }
  }
  return true;
}

std::string UncertaintyBox::ToString() const {
  std::ostringstream out;
  bool any = false;
  for (size_t a = 0; a < kMaxAttributes; ++a) {
    const bool has_shift = shift_lo[a] != 0.0 || shift_hi[a] != 0.0;
    const bool has_fault = fault_lo[a] != 0.0 || fault_hi[a] != 0.0;
    if (!has_shift && !has_fault) continue;
    if (any) out << " ";
    any = true;
    out << "a" << a << ":";
    if (has_shift) out << "shift[" << shift_lo[a] << "," << shift_hi[a] << "]";
    if (has_fault) out << "fault[" << fault_lo[a] << "," << fault_hi[a] << "]";
  }
  return any ? out.str() : "(point)";
}

std::vector<CostScenario> CornerScenarios(const UncertaintyBox& box,
                                          size_t max_scenarios) {
  constexpr double kTol = 1e-12;
  if (max_scenarios == 0) max_scenarios = 1;

  // Dimensions: attributes with a non-degenerate interval. Each dimension's
  // lo/hi choice moves the attribute's shift and fault ends together (the
  // standard corner coupling; shift-lo/fault-hi mixed corners are covered
  // well enough by the per-attribute flips for regret ranking).
  std::vector<size_t> dims;
  for (size_t a = 0; a < kMaxAttributes; ++a) {
    if (box.shift_width(a) > kTol || box.fault_width(a) > kTol) {
      dims.push_back(a);
    }
  }

  CostScenario nominal;
  for (size_t a = 0; a < kMaxAttributes; ++a) {
    nominal.shift[a] = Clamp(0.0, box.shift_lo[a], box.shift_hi[a]);
    nominal.fault[a] = box.fault_lo[a];
  }
  std::vector<CostScenario> out;
  out.push_back(nominal);
  if (dims.empty()) return out;

  const auto corner = [&](uint64_t bits) {
    CostScenario s = nominal;
    for (size_t d = 0; d < dims.size(); ++d) {
      const size_t a = dims[d];
      const bool hi = (bits >> d) & 1;
      s.shift[a] = hi ? box.shift_hi[a] : box.shift_lo[a];
      s.fault[a] = hi ? box.fault_hi[a] : box.fault_lo[a];
    }
    return s;
  };

  std::vector<uint64_t> picked;
  const auto add = [&](uint64_t bits) {
    if (out.size() >= max_scenarios) return;
    if (std::find(picked.begin(), picked.end(), bits) != picked.end()) return;
    picked.push_back(bits);
    out.push_back(corner(bits));
  };

  const size_t k = dims.size();
  if (k < 64 && (uint64_t{1} << k) <= max_scenarios) {
    for (uint64_t bits = 0; bits < (uint64_t{1} << k); ++bits) add(bits);
    return out;
  }
  // Too many corners: extremes first, then single flips off each extreme,
  // then a Gray-code sweep for whatever budget remains. Deterministic, so
  // two evaluations of the same box always price the same scenario set.
  const uint64_t all =
      k >= 64 ? ~uint64_t{0} : ((uint64_t{1} << k) - 1);
  add(0);
  add(all);
  for (size_t d = 0; d < k && out.size() < max_scenarios; ++d) {
    add(uint64_t{1} << d);
    add(all ^ (uint64_t{1} << d));
  }
  for (uint64_t i = 0; out.size() < max_scenarios; ++i) {
    add((i ^ (i >> 1)) & all);  // Gray code
    if (i == all) break;
  }
  return out;
}

CostBounds ExpectedPlanCostBounds(const CompiledPlan& plan,
                                  CondProbEstimator& estimator,
                                  const AcquisitionCostModel& cost_model,
                                  const UncertaintyBox& box,
                                  size_t max_scenarios) {
  const std::vector<CostScenario> scenarios =
      CornerScenarios(box, max_scenarios);
  CostBounds bounds;
  bool first = true;
  for (const CostScenario& s : scenarios) {
    const double c = ExpectedPlanCost(plan, estimator, cost_model, s);
    if (first) {
      bounds.lo = bounds.hi = c;
      first = false;
    } else {
      bounds.lo = std::min(bounds.lo, c);
      bounds.hi = std::max(bounds.hi, c);
    }
  }
  return bounds;
}

void StampEstimatesWithBox(PlanEstimates& estimates, const UncertaintyBox& box,
                           CostBounds bounds) {
  estimates.has_cost_bounds = true;
  estimates.cost_lo = bounds.lo;
  estimates.cost_hi = bounds.hi;
  for (size_t a = 0; a < kMaxAttributes; ++a) {
    estimates.box_shift_lo[a] = box.shift_lo[a];
    estimates.box_shift_hi[a] = box.shift_hi[a];
  }
}

}  // namespace opt
}  // namespace caqp
