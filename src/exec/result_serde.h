// Wire serialization for ExecutionResult — the result-side counterpart to
// the v0xCA plan encoding (plan/plan_serde.h). Executor shards in the dist
// tier reply with a partial ExecutionResult for their partition; this gives
// those replies a stable, validated byte format so a coordinator can treat a
// corrupt reply like a lost shard instead of crashing or silently merging
// garbage.
//
// Layout (all integers LEB128 varints unless noted):
//
//   u8      version        (kResultWireFormatVersion, 0xE5)
//   u8      verdict3       (0 = kFalse, 1 = kTrue, 2 = kUnknown)
//   u8      flags          (bit 0 = aborted; other bits are reserved and
//                           must be zero)
//   f64     cost           (IEEE-754 LE; must be finite and >= 0)
//   varint  acquisitions
//   varint  retries
//   varint  acquired bits  (AttrSet bitmap)
//   varint  failed bits    (AttrSet bitmap)
//
// The reply carries no trace context: in-process shards join the request
// trace when each span is recorded (the scatter span is the parent of every
// shard's RequestScope, dist/shard.h).
//
// The two-valued `verdict` field is derived (verdict3 == kTrue) and never
// encoded. Decoding rejects unknown versions, out-of-range enum bytes,
// reserved flag bits, non-finite or negative cost, counts that overflow int,
// and trailing bytes.

#ifndef CAQP_EXEC_RESULT_SERDE_H_
#define CAQP_EXEC_RESULT_SERDE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "exec/executor.h"

namespace caqp {

/// Leading version byte of the result encoding. Deliberately distinct from
/// the plan formats (0xCA and the legacy 0..3 tree kinds) so a plan buffer
/// handed to the result decoder (or vice versa) fails on the first byte.
inline constexpr uint8_t kResultWireFormatVersion = 0xE5;

/// Encodes `result` into the wire format above.
std::vector<uint8_t> SerializeExecutionResult(const ExecutionResult& result);

/// Decodes and validates a buffer produced by SerializeExecutionResult.
Result<ExecutionResult> DeserializeExecutionResult(
    const std::vector<uint8_t>& bytes);

}  // namespace caqp

#endif  // CAQP_EXEC_RESULT_SERDE_H_
