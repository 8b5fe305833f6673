// Shared helpers for CAQP tests: small random datasets with injected
// correlations and brute-force probability computations to validate the
// estimators and planners against.

#ifndef CAQP_TESTS_TEST_UTIL_H_
#define CAQP_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/dataset.h"
#include "core/query.h"
#include "exec/executor.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "plan/compiled_plan.h"
#include "plan/plan.h"
#include "prob/estimator.h"
#include "prob/subproblem.h"

namespace caqp {
namespace testing_util {

/// A small schema with mixed domain sizes and costs.
inline Schema SmallSchema() {
  Schema s;
  s.AddAttribute("cheap0", 4, 1.0);
  s.AddAttribute("cheap1", 6, 2.0);
  s.AddAttribute("exp0", 4, 50.0);
  s.AddAttribute("exp1", 5, 80.0);
  return s;
}

/// Random dataset over `schema` where attribute i>0 is correlated with
/// attribute 0 (value tends to track attr0 scaled into its domain), so
/// conditional planners have something to exploit.
inline Dataset CorrelatedDataset(const Schema& schema, size_t rows,
                                 uint64_t seed, double noise = 0.25) {
  Rng rng(seed);
  Dataset ds(schema);
  Tuple t(schema.num_attributes());
  for (size_t r = 0; r < rows; ++r) {
    const uint32_t k0 = schema.domain_size(0);
    const auto base = static_cast<uint32_t>(rng.UniformInt(0, k0 - 1));
    t[0] = static_cast<Value>(base);
    for (size_t a = 1; a < schema.num_attributes(); ++a) {
      const uint32_t k = schema.domain_size(static_cast<AttrId>(a));
      uint32_t v;
      if (rng.Bernoulli(noise)) {
        v = static_cast<uint32_t>(rng.UniformInt(0, k - 1));
      } else {
        v = base * k / k0;
        if (v >= k) v = k - 1;
      }
      t[a] = static_cast<Value>(v);
    }
    ds.Append(t);
  }
  return ds;
}

/// Fully independent uniform dataset.
inline Dataset UniformDataset(const Schema& schema, size_t rows,
                              uint64_t seed) {
  Rng rng(seed);
  Dataset ds(schema);
  Tuple t(schema.num_attributes());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      t[a] = static_cast<Value>(
          rng.UniformInt(0, schema.domain_size(static_cast<AttrId>(a)) - 1));
    }
    ds.Append(t);
  }
  return ds;
}

/// Rows of `ds` matching every range, by brute force.
inline std::vector<RowId> BruteForceRows(const Dataset& ds,
                                         const RangeVec& ranges) {
  std::vector<RowId> rows;
  for (RowId r = 0; r < ds.num_rows(); ++r) {
    bool ok = true;
    for (size_t a = 0; a < ranges.size(); ++a) {
      const Value v = ds.at(r, static_cast<AttrId>(a));
      if (v < ranges[a].lo || v > ranges[a].hi) {
        ok = false;
        break;
      }
    }
    if (ok) rows.push_back(r);
  }
  return rows;
}

/// Reference estimator for DatasetEstimator's bitmap count index, which must
/// match it exactly: every statistic walks the rows matching the ranges,
/// adds one unit of weight per row, and aggregates the masks with
/// MaskDistribution::Aggregate.
class RowWalkEstimator : public CondProbEstimator {
 public:
  explicit RowWalkEstimator(const Dataset& data) : data_(data) {}

  const Schema& schema() const override { return data_.schema(); }

  Histogram Marginal(const RangeVec& given, AttrId attr) override {
    Histogram h(data_.schema().domain_size(attr));
    for (RowId r : BruteForceRows(data_, given)) h.Add(data_.at(r, attr));
    return h;
  }

  double ReachProbability(const RangeVec& given) override {
    if (data_.num_rows() == 0) return 0.0;
    return static_cast<double>(BruteForceRows(data_, given).size()) /
           static_cast<double>(data_.num_rows());
  }

  MaskDistribution PredicateMasks(
      const RangeVec& given, const std::vector<Predicate>& preds) override {
    MaskDistribution dist;
    for (RowId r : BruteForceRows(data_, given)) dist.Add(Mask(r, preds), 1.0);
    dist.Aggregate();
    return dist;
  }

  std::vector<MaskDistribution> PerValuePredicateMasks(
      const RangeVec& given, AttrId attr,
      const std::vector<Predicate>& preds) override {
    std::vector<MaskDistribution> out(given[attr].Width());
    for (RowId r : BruteForceRows(data_, given)) {
      out[data_.at(r, attr) - given[attr].lo].Add(Mask(r, preds), 1.0);
    }
    for (MaskDistribution& d : out) d.Aggregate();
    return out;
  }

 private:
  uint64_t Mask(RowId r, const std::vector<Predicate>& preds) const {
    uint64_t mask = 0;
    for (size_t j = 0; j < preds.size(); ++j) {
      if (preds[j].Matches(data_.at(r, preds[j].attr))) {
        mask |= uint64_t{1} << j;
      }
    }
    return mask;
  }

  const Dataset& data_;
};

/// Random valid sub-ranges of the schema's domains.
inline RangeVec RandomRanges(const Schema& schema, Rng& rng,
                             double narrow_probability = 0.5) {
  RangeVec ranges = schema.FullRanges();
  for (size_t a = 0; a < ranges.size(); ++a) {
    if (!rng.Bernoulli(narrow_probability)) continue;
    const uint32_t k = schema.domain_size(static_cast<AttrId>(a));
    const Value lo = static_cast<Value>(rng.UniformInt(0, k - 1));
    const Value hi = static_cast<Value>(rng.UniformInt(lo, k - 1));
    ranges[a] = ValueRange{lo, hi};
  }
  return ranges;
}

/// Random conjunctive query over a subset of attributes.
inline Query RandomConjunctiveQuery(const Schema& schema, Rng& rng,
                                    size_t max_preds = 3) {
  Conjunct preds;
  std::vector<AttrId> attrs;
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    attrs.push_back(static_cast<AttrId>(a));
  }
  // Shuffle attribute choice.
  for (size_t i = attrs.size(); i > 1; --i) {
    std::swap(attrs[i - 1],
              attrs[static_cast<size_t>(rng.UniformInt(0, i - 1))]);
  }
  const size_t n =
      1 + static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(
                     std::min(max_preds, attrs.size())) - 1));
  for (size_t i = 0; i < n; ++i) {
    const AttrId a = attrs[i];
    const uint32_t k = schema.domain_size(a);
    Value lo = static_cast<Value>(rng.UniformInt(0, k - 1));
    Value hi = static_cast<Value>(rng.UniformInt(lo, k - 1));
    // Avoid trivially-true predicates covering the whole domain.
    if (lo == 0 && hi == k - 1) hi = static_cast<Value>(k - 2);
    preds.emplace_back(a, lo, hi, rng.Bernoulli(0.3));
  }
  return Query::Conjunction(std::move(preds));
}

/// Reference executor for the flat walk (src/exec/compiled_walk.h), which
/// must match it field for field: a pointer walk down a Plan tree with the
/// same acquisition, retry, charging and three-valued degradation
/// semantics, and no trace or profile hooks. Kept textually parallel to
/// WalkCompiled; the tree<->flat equivalence test in
/// tests/compiled_plan_test.cc compares every ExecutionResult field.
inline ExecutionResult ExecuteTreeReference(
    const Plan& plan, const Schema& schema,
    const AcquisitionCostModel& cost_model, AcquisitionSource& source,
    const DegradationPolicy& policy = {}) {
  ExecutionResult out;
  // Cache of acquired values; valid where out.acquired has the bit set.
  std::vector<Value> values(schema.num_attributes(), 0);
  const int max_attempts =
      policy.mode == DegradationPolicy::Mode::kRetry
          ? std::max(1, policy.max_attempts)
          : 1;

  // Acquires `a` (retrying per policy), returning true and filling *v on
  // success. Every attempt is charged: the sensor is energized whether or
  // not it returns a sample. A permanently failed attribute is remembered so
  // later plan references don't pay again for a sensor known to be dead.
  auto acquire = [&](AttrId a, Value* v) -> bool {
    if (out.acquired.Contains(a)) {
      *v = values[a];
      return true;
    }
    if (out.failed.Contains(a)) return false;
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
      const AcquiredValue av = source.Acquire(a);
      double marginal = cost_model.Cost(a, out.acquired) * av.cost_multiplier;
      if (attempt > 0) {
        marginal *= policy.retry_cost_multiplier;
        ++out.retries;
      }
      out.cost += marginal;
      if (av.ok) {
        out.acquired.Insert(a);
        ++out.acquisitions;
        values[a] = av.value;
        *v = av.value;
        return true;
      }
      if (av.permanent) break;  // stuck sensor: retrying cannot help
    }
    out.failed.Insert(a);
    return false;
  };

  // Sets the degraded outcome for a failed acquisition the plan could not
  // work around; returns true when execution must stop (kAbort).
  auto degrade = [&]() -> bool {
    out.verdict3 = Truth::kUnknown;
    if (policy.mode == DegradationPolicy::Mode::kAbort) {
      out.aborted = true;
      return true;
    }
    return false;
  };

  const PlanNode* n = &plan.root();
  Value v = 0;
  bool routed = true;
  while (n->kind == PlanNode::Kind::kSplit) {
    if (!acquire(n->attr, &v)) {
      // A split cannot route without its attribute: no residual conjuncts
      // are visible here, so the verdict degrades straight to Unknown.
      (void)degrade();
      routed = false;
      break;
    }
    n = v >= n->split_value ? n->ge.get() : n->lt.get();
  }

  if (routed) {
    switch (n->kind) {
      case PlanNode::Kind::kVerdict:
        out.verdict3 = n->verdict ? Truth::kTrue : Truth::kFalse;
        break;
      case PlanNode::Kind::kSequential: {
        // Three-valued short-circuit AND: a failed acquisition leaves the
        // conjunct Unknown but scanning continues — a later false conjunct
        // still decides the verdict (defined kFalse).
        Truth t = Truth::kTrue;
        for (const Predicate& p : n->sequence) {
          if (!acquire(p.attr, &v)) {
            if (degrade()) break;
            t = Truth::kUnknown;
            continue;
          }
          if (!p.Matches(v)) {
            t = Truth::kFalse;
            break;
          }
        }
        if (!out.aborted) out.verdict3 = t;
        break;
      }
      case PlanNode::Kind::kGeneric: {
        RangeVec ranges = schema.FullRanges();
        for (size_t a = 0; a < schema.num_attributes(); ++a) {
          if (out.acquired.Contains(static_cast<AttrId>(a))) {
            ranges[a] = ValueRange{values[a], values[a]};
          }
        }
        Truth t = n->residual_query.EvaluateOnRanges(ranges);
        for (size_t k = 0; t == Truth::kUnknown && k < n->acquire_order.size();
             ++k) {
          const AttrId a = n->acquire_order[k];
          if (!acquire(a, &v)) {
            if (degrade()) break;
            continue;  // range stays full; later attributes may still decide
          }
          ranges[a] = ValueRange{v, v};
          t = n->residual_query.EvaluateOnRanges(ranges);
        }
        // Without failures the acquisition order must resolve the query.
        CAQP_CHECK(t != Truth::kUnknown || out.failed.Count() > 0);
        if (!out.aborted) out.verdict3 = t;
        break;
      }
      case PlanNode::Kind::kSplit:
        CAQP_CHECK(false);
    }
  }
  out.verdict = out.verdict3 == Truth::kTrue;
  return out;
}

/// Counter `name`'s value in `snap`, or 0 if the snapshot has none: read
/// twice, around the code under test, it gives that code's delta.
inline uint64_t CounterIn(const obs::RegistrySnapshot& snap,
                          std::string_view name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

/// Checks trace `trace_id` in `events` (TraceRecorder::Events(), the spans
/// exactly as recorded, nothing re-parented): it has exactly one parentless
/// span, named `root_name`; no span id occurs twice; and every other span
/// reaches that root through parent ids recorded in the same trace. When
/// `spans` is non-null it receives the trace's events in recorder order.
inline ::testing::AssertionResult TraceIsOneTree(
    const std::vector<obs::SpanEvent>& events, uint64_t trace_id,
    std::string_view root_name, std::vector<obs::SpanEvent>* spans = nullptr) {
  std::vector<obs::SpanEvent> trace;
  for (const obs::SpanEvent& ev : events) {
    if (ev.trace_id == trace_id) trace.push_back(ev);
  }
  auto fail = [&] {
    return ::testing::AssertionFailure() << "trace " << trace_id << ": ";
  };
  std::unordered_map<uint32_t, uint32_t> parent_of;
  const obs::SpanEvent* root = nullptr;
  for (const obs::SpanEvent& ev : trace) {
    if (!parent_of.emplace(ev.span_id, ev.parent_id).second) {
      return fail() << "span id " << ev.span_id << " recorded twice";
    }
    if (ev.parent_id != 0) continue;
    if (root != nullptr) {
      return fail() << "two parentless spans, " << root->name << " and "
                    << ev.name;
    }
    root = &ev;
  }
  if (root == nullptr) return fail() << "no parentless span";
  if (root->name != root_name) return fail() << "root named " << root->name;
  for (const obs::SpanEvent& ev : trace) {
    // A walk longer than the trace is a parent cycle.
    uint32_t cur = ev.span_id;
    for (size_t steps = 0; cur != root->span_id; ++steps) {
      const auto it = parent_of.find(cur);
      if (it == parent_of.end() || steps == trace.size()) {
        return fail() << ev.name << " (span " << ev.span_id
                      << ") does not reach the root";
      }
      cur = it->second;
    }
  }
  if (spans != nullptr) *spans = std::move(trace);
  return ::testing::AssertionSuccess();
}

}  // namespace testing_util
}  // namespace caqp

#endif  // CAQP_TESTS_TEST_UTIL_H_
