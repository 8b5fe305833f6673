// Pretty-printing of conditional plans, in the style of the paper's
// Figure 9 case study: an indented tree showing each conditioning predicate
// and the sequential residue at the leaves. All renderers take the
// CompiledPlan flat form.

#ifndef CAQP_PLAN_PLAN_PRINTER_H_
#define CAQP_PLAN_PLAN_PRINTER_H_

#include <string>

#include "core/schema.h"
#include "opt/cost_model.h"
#include "plan/compiled_plan.h"
#include "prob/estimator.h"

namespace caqp {

/// Multi-line ASCII rendering of the plan tree.
std::string PrintPlan(const CompiledPlan& plan, const Schema& schema);

/// One-line summary: "splits=3 depth=2 size=41B".
std::string PlanSummary(const CompiledPlan& plan);

/// EXPLAIN-style rendering: every node is annotated with the probability a
/// tuple reaches it and the expected acquisition cost of its subtree, both
/// under `estimator` -- e.g.
///   if hour >= 9:  [reach=1.00 cost=103.2]
/// Lets users see where a conditional plan actually spends.
std::string ExplainPlan(const CompiledPlan& plan, CondProbEstimator& estimator,
                        const AcquisitionCostModel& cost_model);

/// Flat-IR dump: one line per node in index (preorder) order, showing the
/// raw arrays the executor walks -- kind, payload fields, child indices, and
/// the first-acquisition flag. The `caqp_plan --emit=flat` output.
std::string DumpCompiledPlan(const CompiledPlan& plan, const Schema& schema);

}  // namespace caqp

#endif  // CAQP_PLAN_PLAN_PRINTER_H_
