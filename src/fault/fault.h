// Deterministic fault injection for acquisitional execution (paper Section
// 2.4: motes brown out, sensors stick, radios time out). A FaultSpec
// describes the failure distribution; a FaultInjector turns it into
// reproducible per-attempt decisions; FaultyAcquisitionSource decorates any
// AcquisitionSource so the executor sees failures without the underlying
// data source knowing about them.
//
// Determinism contract: the outcome of attempt k to acquire attribute `a`
// for dataset row `r` depends only on (spec.seed, r, a, k). It is a pure
// hash (FaultInjector::At), not the k-th draw of a stream shared across
// rows, so a row's faults do not depend on plan shape, row order, which
// other rows ran first, or how rows are partitioned across shards — which is
// what lets a dist shard draw its rows' attempt-0 outcomes once, up front
// (FaultRealization), and what makes dist merge equivalence hold under
// faults. Plans that acquire attributes in different orders, or skip some
// entirely, see identical per-(row, attribute) outcomes; two runs with the
// same spec are bit-identical.

#ifndef CAQP_FAULT_FAULT_H_
#define CAQP_FAULT_FAULT_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "core/dataset.h"
#include "core/types.h"
#include "exec/executor.h"

namespace caqp {

/// Parses `text` as plain decimal digits (no sign, no spaces) no larger than
/// `max` into *out. False for empty text, any other character, or a value
/// past `max` (never wraps). Shared by the fault-profile mini-languages
/// (FaultSpec::Parse, dist::ShardFaultSpec::Parse).
bool ParseDecimal(const std::string& text, uint64_t max, uint64_t* out);

/// Declarative description of a sensor fault distribution.
struct FaultSpec {
  /// Per-attempt probability that an acquisition transiently fails (the
  /// sensor returns nothing this time but may succeed on retry).
  double transient = 0.0;
  /// Per-attribute probability that a sensor is permanently stuck. Decided
  /// once per (seed, attribute); a stuck sensor fails every attempt with
  /// permanent=true so the executor stops retrying it.
  double stuck = 0.0;
  /// Per-attempt probability of a latency/cost spike on a *successful*
  /// acquisition; the sampled value arrives but costs spike_multiplier x
  /// the normal marginal cost.
  double spike = 0.0;
  double spike_multiplier = 1.0;
  uint64_t seed = 1;
  /// Per-attribute overrides of `transient` (attr, probability).
  std::vector<std::pair<AttrId, double>> transient_overrides;

  /// True when the spec can inject anything at all.
  bool any() const {
    if (transient > 0.0 || stuck > 0.0 || spike > 0.0) return true;
    for (const auto& [attr, p] : transient_overrides) {
      (void)attr;
      if (p > 0.0) return true;
    }
    return false;
  }

  /// Transient-failure probability for `attr` (override or global).
  double TransientFor(AttrId attr) const;

  /// Parses the `--fault-profile` mini-language: comma-separated key=value
  /// pairs, e.g. "transient=0.1,stuck=0.01,spike=0.05,spike_mult=3,seed=7".
  /// Per-attribute transient overrides use "transient@<attr>=<p>".
  /// Probabilities must be finite and lie in [0,1]; spike_mult must be a
  /// finite positive number; seeds and attributes are plain decimal
  /// integers that fit their types (no sign, no wrap-around). Malformed
  /// input is rejected with a descriptive InvalidArgument rather than
  /// repaired: duplicate keys (including a second override for the same
  /// attribute), empty items, and trailing commas are all errors.
  static Result<FaultSpec> Parse(const std::string& text);

  /// Round-trips through Parse (modulo float formatting).
  std::string ToString() const;
};

/// Turns a FaultSpec into reproducible per-attempt fault decisions.
///
/// At() is the model: a pure function of (seed, row, attribute, attempt).
/// Every member is const and the injector holds no per-row state, so one
/// instance can be shared across threads. The per-row attempt counters
/// live in FaultyAcquisitionSource, which the per-tuple executor reads
/// through.
class FaultInjector {
 public:
  /// Aborts unless every rate is finite and in [0,1] and spike_multiplier
  /// is finite and positive (Parse rejects such text; this catches specs
  /// built in code — a NaN rate would otherwise silently inject nothing).
  explicit FaultInjector(const FaultSpec& spec);

  /// Outcome of one acquisition attempt.
  struct Outcome {
    bool fail = false;
    bool permanent = false;
    double cost_multiplier = 1.0;
  };

  /// The outcome of attempt `attempt` (0 = first) to acquire `attr` for
  /// dataset row `row`. Stuck attributes fail permanently; otherwise a
  /// transient-failure draw, and on success an independent spike draw.
  Outcome At(RowId row, AttrId attr, uint32_t attempt) const {
    CAQP_DCHECK(attr < kMaxAttributes);
    Outcome o;
    if ((stuck_ >> attr) & 1) {
      o.fail = true;
      o.permanent = true;
      return o;
    }
    if (fail_below_[attr] != 0 &&
        Draw(StreamKey(attr, attempt, kFailDraw), row) < fail_below_[attr]) {
      o.fail = true;
      return o;
    }
    if (spike_below_ != 0 &&
        Draw(StreamKey(attr, attempt, kSpikeDraw), row) < spike_below_) {
      o.cost_multiplier = spec_.spike_multiplier;
    }
    return o;
  }

  /// Whether attempt 0 for one attribute succeeds at the normal cost —
  /// At(row, attr, 0) is the default Outcome — with the attribute's keys
  /// and thresholds copied out so a loop over rows keeps them in registers.
  /// FaultRealization draws its clean bits with it.
  struct CleanTest {
    bool stuck = false;
    uint64_t fail_key = 0;
    uint64_t fail_below = 0;
    uint64_t spike_key = 0;
    uint64_t spike_below = 0;

    /// Branch-free in the draws (whether a draw is taken at all depends
    /// only on the spec): a spike on a failed attempt is not clean either.
    bool Clean(RowId row) const {
      if (stuck) return false;
      bool clean = true;
      if (fail_below != 0) clean &= Draw(fail_key, row) >= fail_below;
      if (spike_below != 0) clean &= Draw(spike_key, row) >= spike_below;
      return clean;
    }
  };
  CleanTest CleanTestFor(AttrId attr) const {
    CAQP_DCHECK(attr < kMaxAttributes);
    return CleanTest{((stuck_ >> attr) & 1) != 0, key0_[attr][kFailDraw],
                     fail_below_[attr], key0_[attr][kSpikeDraw],
                     spike_below_};
  }

  const FaultSpec& spec() const { return spec_; }

 private:
  static constexpr int kFailDraw = 0;
  static constexpr int kSpikeDraw = 1;

  /// Key of the splitmix64 stream over rows that decides draw `kind` of
  /// attempt `attempt` for the attribute keyed `attr_key`.
  static uint64_t AttemptKey(uint64_t attr_key, uint32_t attempt, int kind) {
    const uint64_t step = 2 * static_cast<uint64_t>(attempt) + kind + 1;
    return Mix64(attr_key + kGoldenGamma * step);
  }
  /// AttemptKey for `attr`, with attempt 0's keys cached.
  uint64_t StreamKey(AttrId attr, uint32_t attempt, int kind) const {
    if (attempt == 0) return key0_[attr][kind];
    return AttemptKey(attr_key_[attr], attempt, kind);
  }
  /// Uniform 53-bit draw for `row` from stream `key`; compared against a
  /// threshold ceil(p * 2^53), so p = 0 never and p = 1 always fires.
  static uint64_t Draw(uint64_t key, RowId row) {
    return Mix64(key + kGoldenGamma * (static_cast<uint64_t>(row) + 1)) >> 11;
  }

  FaultSpec spec_;
  std::array<uint64_t, kMaxAttributes> attr_key_{};  ///< per-(seed, attr) key
  std::array<std::array<uint64_t, 2>, kMaxAttributes> key0_{};
  std::array<uint64_t, kMaxAttributes> fail_below_{};  ///< transient thresholds
  uint64_t spike_below_ = 0;
  uint64_t stuck_ = 0;  ///< bit a set: attribute a is stuck
};

/// The attempt-0 fault realization of one row list: one clean bit per
/// (position, attribute), drawn from the injector once, at construction.
/// Bit i of attribute a is set iff At(keys[i], a, 0) is the default Outcome
/// — no failure and no spike (FaultInjector::CleanTest). A fault is a pure
/// function of (seed, row, attribute, attempt), so the bits are outcomes the
/// model already fixes, only drawn earlier; verdicts, costs and counters
/// are still computed per query (exec/batch_executor.h, fault mode).
///
/// The realization is positioned over one span, `rows`, and keyed by
/// another of the same length, `keys`: position i is read as row rows[i]
/// and draws for dataset row keys[i]. By default the two are the same span.
/// A dist shard executes its own copy of its rows, local rows 0..n-1, so it
/// positions its realization over those and keys it by their global ids:
/// a row faults as it would in any other partitioning.
///
/// A set bit is a promise: that attempt succeeds at the normal cost. A clear
/// bit only means "take the exact path": the columnar fault kernels redraw
/// such a row's attempts through At(), by its key. A clear bit can cost time
/// but can never change a result.
///
/// Immutable after construction, so one instance can be shared across
/// threads. It holds ceil(rows / 64) words per attribute and its own copy of
/// the injector. It keeps the spans, not the ids: they must outlive it, and
/// its positions mean nothing over any other span.
class FaultRealization {
 public:
  /// Draws the bits of attributes 0..num_attributes-1 (at most
  /// kMaxAttributes) for every position of `rows`, keyed by `keys` (empty:
  /// by `rows` itself; otherwise exactly as long as `rows`).
  FaultRealization(const FaultInjector& injector, std::span<const RowId> rows,
                   size_t num_attributes, std::span<const RowId> keys = {});

  /// The model the bits were drawn from; later attempts draw through it.
  const FaultInjector& injector() const { return injector_; }
  /// The row list the realization is positioned over; a position indexes
  /// it.
  std::span<const RowId> rows() const { return rows_; }
  /// The dataset row ids the draws are keyed by, one per position.
  std::span<const RowId> keys() const { return keys_; }
  size_t num_attributes() const { return num_attributes_; }

  /// Attribute `attr`'s words: position p's bit is bit (p & 63) of word
  /// p >> 6. Bits past rows().size() are clear.
  const uint64_t* clean_words(AttrId attr) const {
    CAQP_DCHECK(attr < num_attributes_);
    return words_.data() + attr * words_per_attr_;
  }
  /// Position `pos`'s bit for `attr`.
  bool Clean(size_t pos, AttrId attr) const {
    CAQP_DCHECK(pos < rows_.size());
    return (clean_words(attr)[pos >> 6] >> (pos & 63)) & 1;
  }
  /// Bits of `attr` for positions pos..pos+63, for any pos < rows().size(),
  /// word-aligned or not: bit j is position pos + j's bit, clear past the
  /// end.
  uint64_t CleanWord(AttrId attr, size_t pos) const {
    CAQP_DCHECK(pos < rows_.size());
    const uint64_t* words = clean_words(attr);
    const size_t word = pos >> 6;
    const size_t shift = pos & 63;
    uint64_t bits = words[word] >> shift;
    if (shift != 0 && word + 1 < words_per_attr_) {
      bits |= words[word + 1] << (64 - shift);
    }
    return bits;
  }

 private:
  const FaultInjector injector_;
  const std::span<const RowId> rows_;
  const std::span<const RowId> keys_;
  const size_t num_attributes_;
  const size_t words_per_attr_;
  std::vector<uint64_t> words_;  ///< attribute-major
};

/// Decorator that injects faults in front of any AcquisitionSource. The
/// underlying source is only consulted for attempts the injector lets
/// through, so recorded datasets and live samplers need no fault awareness.
///
/// The source owns the per-row draw state the injector does not: the row,
/// one attempt counter per attribute and a tally of failed attempts. Its
/// k-th Acquire(a) since SetRow(row) is At(row, a, k), so a row's faults do
/// not depend on which rows ran before it. Point the base source at the
/// same row. Without SetRow every attempt draws for row 0 with counters
/// that never restart. Single-threaded; give each thread its own source
/// over one shared injector.
class FaultyAcquisitionSource final : public AcquisitionSource {
 public:
  FaultyAcquisitionSource(AcquisitionSource& base,
                          const FaultInjector& injector)
      : base_(base), injector_(injector) {}
  /// The source keeps a reference: a temporary injector would dangle.
  FaultyAcquisitionSource(AcquisitionSource&, FaultInjector&&) = delete;

  /// Later attempts draw for dataset row `row`, each attribute from
  /// attempt 0 again.
  void SetRow(RowId row) {
    row_ = row;
    attempts_.fill(0);
  }

  /// Draws At(row, attr, k) for the k-th attempt at `attr` on this row;
  /// a failure adds one to injected() and to the `fault.injected` counter.
  AcquiredValue Acquire(AttrId attr) override;

  /// Failed attempts since construction, over every row.
  uint64_t injected() const { return injected_; }

 private:
  AcquisitionSource& base_;
  const FaultInjector& injector_;
  RowId row_ = 0;
  std::array<uint32_t, kMaxAttributes> attempts_{};
  uint64_t injected_ = 0;
};

}  // namespace caqp

#endif  // CAQP_FAULT_FAULT_H_
