// Fundamental value types shared across CAQP.
//
// Following the paper (Section 2.1), every attribute X_i is discrete with a
// finite domain {0, ..., K_i - 1} (the paper writes {1, ..., K_i}; we are
// zero-based). Real-valued sensor readings are discretized before entering
// the system (core/discretizer.h), mirroring the limited ADC resolution of
// the Berkeley motes.

#ifndef CAQP_CORE_TYPES_H_
#define CAQP_CORE_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/check.h"

namespace caqp {

/// Index of an attribute within a Schema.
using AttrId = uint16_t;

/// A discretized attribute value in [0, K_i).
using Value = uint16_t;

/// Sentinel for "no attribute".
inline constexpr AttrId kInvalidAttr = static_cast<AttrId>(-1);

/// Schemas hold at most this many attributes: an AttrSet (prob/subproblem.h)
/// is one 64-bit word, and per-attribute tables and scratch are sized to it.
inline constexpr size_t kMaxAttributes = 64;

/// A fully-materialized tuple: one Value per schema attribute. During
/// *execution* values are acquired lazily; Tuple is the ground truth a
/// simulator or dataset holds.
using Tuple = std::vector<Value>;

/// An inclusive value range [lo, hi] for one attribute. The exhaustive
/// planner's subproblems are vectors of Ranges (one per attribute).
struct ValueRange {
  Value lo = 0;
  Value hi = 0;

  bool Contains(Value v) const { return lo <= v && v <= hi; }
  /// Number of distinct values in the range.
  uint32_t Width() const { return static_cast<uint32_t>(hi) - lo + 1; }
  bool operator==(const ValueRange& o) const = default;
};

/// Three-valued logic for evaluating predicates over *ranges* rather than
/// points: a range may make a predicate definitely true, definitely false,
/// or leave it undetermined. This is what drives the planner's base cases
/// ("ranges sufficient to determine truth of phi", Figure 5).
enum class Truth : uint8_t { kFalse = 0, kTrue = 1, kUnknown = 2 };

inline Truth TruthAnd(Truth a, Truth b) {
  if (a == Truth::kFalse || b == Truth::kFalse) return Truth::kFalse;
  if (a == Truth::kTrue && b == Truth::kTrue) return Truth::kTrue;
  return Truth::kUnknown;
}

inline Truth TruthOr(Truth a, Truth b) {
  if (a == Truth::kTrue || b == Truth::kTrue) return Truth::kTrue;
  if (a == Truth::kFalse && b == Truth::kFalse) return Truth::kFalse;
  return Truth::kUnknown;
}

inline Truth TruthNot(Truth a) {
  if (a == Truth::kUnknown) return Truth::kUnknown;
  return a == Truth::kTrue ? Truth::kFalse : Truth::kTrue;
}

/// The 64-bit golden-ratio constant, 2^64 / phi: splitmix64's increment.
inline constexpr uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ULL;

/// 64-bit FNV-1a style combine, used for hashing subproblem range vectors.
inline size_t HashCombine(size_t seed, size_t v) {
  // Boost-style mix with the golden-ratio constant.
  return seed ^ (v + kGoldenGamma + (seed << 6) + (seed >> 2));
}

/// splitmix64's finalizer: a full-avalanche bijection on 64-bit words.
/// Mix64(x + kGoldenGamma) is one splitmix64 step, which hashes row ids
/// onto shards, plan keys onto cache shards and predicates into query
/// signatures; the fault model keys its per-row draws with it
/// (fault/fault.h). All of these are pinned bit for bit by tests.
inline constexpr uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Hash of a subproblem range vector (cache key for the DP in Figure 5).
struct RangeVectorHash {
  size_t operator()(const std::vector<ValueRange>& ranges) const {
    size_t h = ranges.size();
    for (const ValueRange& r : ranges) {
      h = HashCombine(h, (static_cast<size_t>(r.lo) << 16) | r.hi);
    }
    return h;
  }
};

}  // namespace caqp

#endif  // CAQP_CORE_TYPES_H_
