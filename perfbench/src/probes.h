// Direct timed calls into single layers, on a workload's own queries, plans
// and rows (traced run only). Each probe loops over its inputs for a fixed
// wall-clock budget and reports the mean cost of one unit of work.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <memory>
#include <span>
#include <vector>

#include "common.h"
#include "core/dataset.h"
#include "exec/executor.h"
#include "fault/fault.h"
#include "plan/compiled_plan.h"

namespace perfbench {

using PlanList = std::vector<std::shared_ptr<const caqp::CompiledPlan>>;

/// Nanoseconds per QuerySignature call over reshuffled workload queries.
double ProbeSignatureNs(const std::vector<caqp::Query>& queries,
                        uint64_t seed);

/// Microseconds per SerializePlan call over the workload's plans.
double ProbeSerializeUs(const PlanList& plans);

/// Nanoseconds per tuple of scalar flat ExecutePlan over (plan, row) pairs.
double ProbeScalarNsPerTuple(const PlanList& plans, const caqp::Dataset& data,
                             std::span<const caqp::RowId> rows,
                             const caqp::AcquisitionCostModel& cost_model);

/// Nanoseconds per row of ExecuteBatchColumnar over each row set.
double ProbeColumnarNsPerRow(
    const PlanList& plans, const caqp::Dataset& data,
    const std::vector<std::vector<caqp::RowId>>& row_sets,
    const caqp::AcquisitionCostModel& cost_model);

/// Nanoseconds per row of the dist shards' fault path: scalar ExecutePlan
/// per row through FaultyAcquisitionSource under `policy`.
double ProbeFaultyNsPerRow(const PlanList& plans, const caqp::Dataset& data,
                           std::span<const caqp::RowId> rows,
                           const caqp::AcquisitionCostModel& cost_model,
                           const caqp::FaultSpec& faults,
                           const caqp::DegradationPolicy& policy);

/// The row-level fault profile of dist_faults: 5% transient acquisition
/// failures, retried up to 3 attempts in all.
caqp::FaultSpec FaultProfile(uint64_t seed);
caqp::DegradationPolicy FaultPolicy();

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
