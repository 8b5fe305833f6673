// Uncertainty boxes over the planner's beliefs, and interval cost
// evaluation of compiled plans.
//
// Every expected-cost number the planners optimize is computed from point
// estimates: predicate pass probabilities from a CondProbEstimator trained
// on history, and implicit fault-free acquisition. Both are guesses. An
// UncertaintyBox makes the guess error explicit as per-attribute intervals:
//
//  * shift intervals [shift_lo[a], shift_hi[a]] — additive perturbations of
//    every pass probability involving attribute a. A scenario with shift s
//    replaces each predicted pass probability p (P(X_a >= split) at split
//    nodes, the conditional predicate pass probability at sequential
//    leaves) with clamp01(p + s). Additive shifts are exactly the units of
//    the calibration layer's drift score (|observed - predicted| pass
//    rate, obs/calibration.h), so observed miscalibration converts to
//    interval widths with no rescaling.
//  * fault intervals [fault_lo[a], fault_hi[a]] — transient-failure rates
//    for acquisitions of attribute a. Under a retry-until-success
//    discipline a rate f multiplies the expected acquisition cost by
//    1/(1-f).
//
// A CostScenario (plan/plan_cost.h) is one point of the box, and
// ExpectedPlanCost(plan, est, cm, scenario) prices a plan there: the one
// Eq. 3 walk applies the shifts and fault multipliers itself, so the zero
// scenario is the point cost. CornerScenarios enumerates the box's corners
// (capped), and ExpectedPlanCostBounds reduces the corner sweep to a
// [lo, hi] cost interval. opt/regret.h builds the minmax-regret planner on
// top.
//
// Box construction closes two loops:
//  * UncertaintyBox::Uniform — the static widening knob
//    (caqp_plan --uncertainty=eps): symmetric +-eps on every queried
//    attribute.
//  * UncertaintyBox::FromCalibration — PR 6's CalibrationReport windows:
//    each attribute's *signed* drift (observed minus predicted pass rate)
//    becomes a directional interval spanning [0, drift] (or [drift, 0]),
//    i.e. "the world may have moved this far in the direction we already
//    measured". serve::DriftPolicy's widen mode feeds this from the firing
//    window, so sustained drift swaps cached plans for regret-optimal ones
//    instead of replanning on the same stale point estimates.
//  * UncertaintyBox::FromFaultSpec — PR 3 fault profiles: the configured
//    transient rates +- eps become the fault intervals.

#ifndef CAQP_OPT_UNCERTAINTY_H_
#define CAQP_OPT_UNCERTAINTY_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "opt/cost_model.h"
#include "plan/compiled_plan.h"
#include "plan/plan_cost.h"
#include "plan/plan_estimates.h"
#include "prob/estimator.h"

namespace caqp {

struct FaultSpec;  // fault/fault.h

namespace obs {
struct CalibrationReport;  // obs/calibration.h
}

namespace opt {

/// Per-attribute belief intervals. Attribute indexing matches PlanEstimates'
/// rate tables (schemas are capped at kMaxAttributes = 64 attributes).
/// The default-constructed box is degenerate (all intervals are the point
/// {0} / {0}): planning under it is planning on the point estimates.
struct UncertaintyBox {
  /// Additive pass-probability shift interval per attribute;
  /// shift_lo[a] <= 0 <= shift_hi[a] need NOT hold (directional boxes from
  /// calibration span [0, drift]), but lo <= hi always does.
  std::array<double, kMaxAttributes> shift_lo{};
  std::array<double, kMaxAttributes> shift_hi{};
  /// Transient-fault-rate interval per attribute, in [0, 1).
  std::array<double, kMaxAttributes> fault_lo{};
  std::array<double, kMaxAttributes> fault_hi{};

  /// Symmetric +-eps pass-probability uncertainty on every attribute (the
  /// --uncertainty=eps knob). eps is clamped to [0, 1].
  static UncertaintyBox Uniform(double eps);

  /// Directional intervals from a calibration report (typically a drift
  /// window): for each attribute row with at least `min_evals` observed
  /// evaluations and a nonzero predicted side, the signed drift
  /// d = observed - predicted pass rate becomes the interval
  /// [min(0, scale*d), max(0, scale*d)], clamped to +-cap.
  static UncertaintyBox FromCalibration(const obs::CalibrationReport& report,
                                        double scale = 1.0, double cap = 1.0,
                                        uint64_t min_evals = 1);

  /// Fault intervals around a fault profile's transient rates:
  /// [max(0, r-eps), min(max_rate, r+eps)] per attribute, where r is
  /// FaultSpec::TransientFor(a). Shift intervals stay degenerate.
  static UncertaintyBox FromFaultSpec(const FaultSpec& spec, double eps = 0.0,
                                      double max_rate = 0.95);

  /// Pointwise union: the smallest box containing both. Used by the drift
  /// widen loop so consecutive windows only ever widen beliefs.
  void MergeFrom(const UncertaintyBox& other);

  /// Interval widths for attribute a.
  double shift_width(size_t a) const { return shift_hi[a] - shift_lo[a]; }
  double fault_width(size_t a) const { return fault_hi[a] - fault_lo[a]; }

  /// Largest interval width (shift or fault) over all attributes.
  double max_width() const;

  /// True when every interval is narrower than `tol` AND contains only
  /// (numerically) zero shift / zero extra fault — planning under the box
  /// degenerates to point-estimate planning.
  bool degenerate(double tol = 1e-12) const;

  /// "a3:shift[-0.1,0.2] a5:fault[0,0.3]" — attributes with nonzero
  /// intervals only; "(point)" for a degenerate box.
  std::string ToString() const;
};

/// Corner enumeration of `box`, at most `max_scenarios` entries. The first
/// entry is always the nominal scenario (zero shift clamped into each
/// interval, fault = fault_lo). Each uncertain attribute is one dimension
/// whose lo/hi choice moves its shift and fault interval ends together;
/// when the full 2^k product exceeds the cap, the all-lo / all-hi corners
/// and all single-attribute flips are kept, then remaining corners fill in
/// deterministic (Gray-code) order. Never returns an empty vector.
std::vector<CostScenario> CornerScenarios(const UncertaintyBox& box,
                                          size_t max_scenarios = 64);

/// Interval cost evaluation: [min, max] of ExpectedPlanCost over
/// CornerScenarios(box, max_scenarios). lo <= point cost <= hi whenever the
/// box contains the zero scenario.
struct CostBounds {
  double lo = 0.0;
  double hi = 0.0;
};
CostBounds ExpectedPlanCostBounds(const CompiledPlan& plan,
                                  CondProbEstimator& estimator,
                                  const AcquisitionCostModel& cost_model,
                                  const UncertaintyBox& box,
                                  size_t max_scenarios = 64);

/// Stamps the box and its cost interval onto a plan's predicted side tables
/// so calibration can score the robust plan against what it promised
/// (obs/calibration.h surfaces predicted_cost_lo/hi per plan).
void StampEstimatesWithBox(PlanEstimates& estimates, const UncertaintyBox& box,
                           CostBounds bounds);

/// Thread-safe holder for "the box the fleet currently plans under". The
/// serve drift loop Sets it when a window fires in widen mode; per-worker
/// planners read it via RegretPlanner::Options::box_provider. Get returns a
/// copy, so readers never hold the lock across planning.
class SharedUncertaintyBox {
 public:
  UncertaintyBox Get() const {
    std::lock_guard<std::mutex> lock(mu_);
    return box_;
  }
  void Set(const UncertaintyBox& box) {
    std::lock_guard<std::mutex> lock(mu_);
    box_ = box;
  }
  /// Pointwise-union update (monotone widening).
  void Widen(const UncertaintyBox& box) {
    std::lock_guard<std::mutex> lock(mu_);
    box_.MergeFrom(box);
  }

 private:
  mutable std::mutex mu_;
  UncertaintyBox box_;
};

}  // namespace opt
}  // namespace caqp

#endif  // CAQP_OPT_UNCERTAINTY_H_
