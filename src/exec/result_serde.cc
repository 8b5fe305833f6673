#include "exec/result_serde.h"

#include <cmath>
#include <limits>

#include "common/bytes.h"

namespace caqp {

namespace {
constexpr uint8_t kFlagAborted = 1u << 0;
}  // namespace

std::vector<uint8_t> SerializeExecutionResult(const ExecutionResult& result) {
  ByteWriter w;
  w.PutU8(kResultWireFormatVersion);
  w.PutU8(static_cast<uint8_t>(result.verdict3));
  w.PutU8(result.aborted ? kFlagAborted : 0);
  w.PutDouble(result.cost);
  w.PutVarint(static_cast<uint64_t>(result.acquisitions));
  w.PutVarint(static_cast<uint64_t>(result.retries));
  w.PutVarint(result.acquired.bits);
  w.PutVarint(result.failed.bits);
  return w.bytes();
}

Result<ExecutionResult> DeserializeExecutionResult(
    const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  uint8_t version = 0;
  CAQP_RETURN_IF_ERROR(r.GetU8(&version));
  if (version != kResultWireFormatVersion) {
    return Status::InvalidArgument("unknown result wire format version");
  }
  uint8_t verdict3 = 0;
  CAQP_RETURN_IF_ERROR(r.GetU8(&verdict3));
  if (verdict3 > static_cast<uint8_t>(Truth::kUnknown)) {
    return Status::InvalidArgument("result verdict3 out of range");
  }
  uint8_t flags = 0;
  CAQP_RETURN_IF_ERROR(r.GetU8(&flags));
  if ((flags & ~kFlagAborted) != 0) {
    return Status::InvalidArgument("result flags has reserved bits set");
  }
  double cost = 0.0;
  CAQP_RETURN_IF_ERROR(r.GetDouble(&cost));
  if (!std::isfinite(cost) || cost < 0.0) {
    return Status::InvalidArgument("result cost not finite and non-negative");
  }
  uint64_t acquisitions = 0;
  uint64_t retries = 0;
  CAQP_RETURN_IF_ERROR(r.GetVarint(&acquisitions));
  CAQP_RETURN_IF_ERROR(r.GetVarint(&retries));
  constexpr uint64_t kMaxCount =
      static_cast<uint64_t>(std::numeric_limits<int>::max());
  if (acquisitions > kMaxCount || retries > kMaxCount) {
    return Status::InvalidArgument("result count overflows int");
  }
  ExecutionResult out;
  CAQP_RETURN_IF_ERROR(r.GetVarint(&out.acquired.bits));
  CAQP_RETURN_IF_ERROR(r.GetVarint(&out.failed.bits));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after result encoding");
  }
  out.verdict3 = static_cast<Truth>(verdict3);
  out.verdict = out.verdict3 == Truth::kTrue;
  out.aborted = (flags & kFlagAborted) != 0;
  out.cost = cost;
  out.acquisitions = static_cast<int>(acquisitions);
  out.retries = static_cast<int>(retries);
  return out;
}

}  // namespace caqp
