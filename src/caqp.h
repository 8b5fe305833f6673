// Umbrella header: everything a typical CAQP user needs.
//
//   #include "caqp.h"
//
// pulls in the core data model, the probability estimators, every planner,
// plan costing/serialization/verification, and the executor. Subsystems can
// still be included individually (see README for the directory map).

#ifndef CAQP_CAQP_H_
#define CAQP_CAQP_H_

#include "core/csv.h"          // IWYU pragma: export
#include "core/dataset.h"      // IWYU pragma: export
#include "core/discretizer.h"  // IWYU pragma: export
#include "core/predicate.h"    // IWYU pragma: export
#include "core/query.h"        // IWYU pragma: export
#include "core/schema.h"       // IWYU pragma: export
#include "exec/executor.h"     // IWYU pragma: export
#include "fault/fault.h"       // IWYU pragma: export
#include "obs/export.h"        // IWYU pragma: export
#include "obs/obs.h"           // IWYU pragma: export
#include "obs/planner_stats.h" // IWYU pragma: export
#include "obs/registry.h"      // IWYU pragma: export
#include "obs/trace.h"         // IWYU pragma: export
#include "opt/adaptive.h"      // IWYU pragma: export
#include "opt/cost_model.h"    // IWYU pragma: export
#include "opt/exhaustive.h"    // IWYU pragma: export
#include "opt/greedy_plan.h"   // IWYU pragma: export
#include "opt/greedyseq.h"     // IWYU pragma: export
#include "opt/naive.h"         // IWYU pragma: export
#include "opt/optseq.h"        // IWYU pragma: export
#include "opt/planner.h"       // IWYU pragma: export
#include "opt/split_points.h"  // IWYU pragma: export
#include "plan/plan.h"         // IWYU pragma: export
#include "plan/plan_cost.h"    // IWYU pragma: export
#include "plan/plan_printer.h" // IWYU pragma: export
#include "plan/plan_serde.h"   // IWYU pragma: export
#include "plan/plan_verify.h"  // IWYU pragma: export
#include "prob/chow_liu.h"     // IWYU pragma: export
#include "prob/dataset_estimator.h"      // IWYU pragma: export
#include "prob/independent_estimator.h"  // IWYU pragma: export

#endif  // CAQP_CAQP_H_
