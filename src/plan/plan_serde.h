// Plan serialization: the byte encoding a basestation radios to the motes.
// The encoded length is the paper's plan size zeta(P) (Section 2.4), used
// both to bound plan sizes for device RAM and in the joint optimization
// C(P) + alpha * zeta(P). Deserialization validates against a schema and
// returns Status errors (plans arrive over a lossy medium).
//
// Wire format (version 0xCA): the CompiledPlan flat form, serialized
// directly — a leading version byte, a varint node count, then the nodes in
// preorder index order. A split stores its ">=" child index explicitly (the
// "<" child is always the next node); leaves carry their payloads inline.
// Decoding rebuilds the flat arrays with a single linear pass, validates the
// preorder topology with a stack walk, and gates the result on
// PlanIsWellFormed. Bytes with any other leading byte (including the
// pre-0xCA recursive tree encoding, whose first byte was a node kind in
// 0..3) are rejected as an unknown format version.

#ifndef CAQP_PLAN_PLAN_SERDE_H_
#define CAQP_PLAN_PLAN_SERDE_H_

#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "core/schema.h"
#include "plan/compiled_plan.h"
#include "plan/plan.h"

namespace caqp {

/// Leading byte of the flat wire format, the only one decoders accept.
inline constexpr uint8_t kPlanWireFormatVersion = 0xCA;

/// Encodes a compiled plan. Varint-based: a typical split costs 4-6 bytes.
std::vector<uint8_t> SerializePlan(const CompiledPlan& plan);
/// Tree convenience form: compiles, then serializes the flat form.
std::vector<uint8_t> SerializePlan(const Plan& plan);

/// zeta(P): the serialized size in bytes.
size_t PlanSizeBytes(const CompiledPlan& plan);
size_t PlanSizeBytes(const Plan& plan);

/// Decodes and validates a plan against `schema`. Fails on truncated input,
/// out-of-domain attributes or values, malformed preorder topology,
/// trailing garbage, or a leading byte other than kPlanWireFormatVersion.
Result<CompiledPlan> DeserializeCompiledPlan(const std::vector<uint8_t>& bytes,
                                             const Schema& schema);

/// Compat shim for callers that still edit trees: DeserializeCompiledPlan,
/// then reconstruct the pointer-tree form.
Result<Plan> DeserializePlan(const std::vector<uint8_t>& bytes,
                             const Schema& schema);

}  // namespace caqp

#endif  // CAQP_PLAN_PLAN_SERDE_H_
