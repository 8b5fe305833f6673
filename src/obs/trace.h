// Execution tracing: an optional sink interface the plan executor reports
// to, plus two stock sinks — one that records a single tuple's acquisition
// order and branch path (for EXPLAIN-style debugging and the --trace-out
// JSONL of tools/caqp_plan), and one that aggregates per-attribute
// acquisition histograms across many tuples (the executor metrics of bench
// JSON exports).
//
// The executor touches the sink only through `if (sink)` null checks, so
// passing nullptr (the default everywhere) keeps the hot path free of
// instrumentation.

#ifndef CAQP_OBS_TRACE_H_
#define CAQP_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.h"

namespace caqp {

/// Receives execution events from ExecutePlan, in plan-traversal order.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  /// First acquisition of `attr` for the current tuple; `marginal_cost` is
  /// what the cost model charged for it.
  virtual void OnAcquire(AttrId attr, Value value, double marginal_cost) = 0;
  /// A split node routed the tuple: `went_ge` is true for the >= branch.
  virtual void OnBranch(AttrId attr, Value split_value, bool went_ge) = 0;
  /// The plan reached a decision; called exactly once per executed tuple.
  virtual void OnVerdict(bool verdict, double total_cost) = 0;
};

/// One recorded acquisition.
struct TraceAcquisition {
  AttrId attr = kInvalidAttr;
  Value value = 0;
  double cost = 0.0;
};

/// One recorded split decision.
struct TraceBranch {
  AttrId attr = kInvalidAttr;
  Value split_value = 0;
  bool went_ge = false;
};

/// Records every event of a single tuple's execution. Reusable across
/// tuples via Clear().
class ExecutionTrace : public TraceSink {
 public:
  void OnAcquire(AttrId attr, Value value, double marginal_cost) override {
    acquisitions_.push_back({attr, value, marginal_cost});
  }
  void OnBranch(AttrId attr, Value split_value, bool went_ge) override {
    branches_.push_back({attr, split_value, went_ge});
  }
  void OnVerdict(bool verdict, double total_cost) override {
    verdict_ = verdict;
    total_cost_ = total_cost;
    ++verdicts_;
  }

  /// Acquisitions in the order the plan performed them (each attribute at
  /// most once per tuple).
  const std::vector<TraceAcquisition>& acquisitions() const {
    return acquisitions_;
  }
  /// Root-to-leaf split decisions.
  const std::vector<TraceBranch>& branches() const { return branches_; }
  bool verdict() const { return verdict_; }
  double total_cost() const { return total_cost_; }
  /// Number of OnVerdict calls since Clear() — 1 after one execution.
  size_t verdicts() const { return verdicts_; }

  void Clear() {
    acquisitions_.clear();
    branches_.clear();
    verdict_ = false;
    total_cost_ = 0.0;
    verdicts_ = 0;
  }

 private:
  std::vector<TraceAcquisition> acquisitions_;
  std::vector<TraceBranch> branches_;
  bool verdict_ = false;
  double total_cost_ = 0.0;
  size_t verdicts_ = 0;
};

/// Aggregates acquisition behaviour across many tuples: per-attribute
/// acquisition counts and charged cost, tuple and match totals. The
/// per-attribute histogram feeds structured exports.
class AttributeProfile : public TraceSink {
 public:
  explicit AttributeProfile(size_t num_attributes)
      : counts_(num_attributes, 0), costs_(num_attributes, 0.0) {}

  void OnAcquire(AttrId attr, Value /*value*/, double marginal_cost) override {
    if (attr < counts_.size()) {
      ++counts_[attr];
      costs_[attr] += marginal_cost;
    }
  }
  void OnBranch(AttrId /*attr*/, Value /*split*/, bool /*ge*/) override {}
  void OnVerdict(bool verdict, double total_cost) override {
    ++tuples_;
    if (verdict) ++matches_;
    total_cost_ += total_cost;
  }

  size_t num_attributes() const { return counts_.size(); }
  /// Times `attr` was acquired across all executed tuples.
  uint64_t count(AttrId attr) const { return counts_[attr]; }
  /// Total cost charged for acquisitions of `attr`.
  double cost(AttrId attr) const { return costs_[attr]; }
  /// Fraction of tuples that acquired `attr` (0 if no tuples ran).
  double AcquisitionRate(AttrId attr) const {
    return tuples_ ? static_cast<double>(counts_[attr]) /
                         static_cast<double>(tuples_)
                   : 0.0;
  }
  size_t tuples() const { return tuples_; }
  size_t matches() const { return matches_; }
  double total_cost() const { return total_cost_; }
  double MeanCost() const {
    return tuples_ ? total_cost_ / static_cast<double>(tuples_) : 0.0;
  }

 private:
  std::vector<uint64_t> counts_;
  std::vector<double> costs_;
  size_t tuples_ = 0;
  size_t matches_ = 0;
  double total_cost_ = 0.0;
};

}  // namespace caqp

#endif  // CAQP_OBS_TRACE_H_
