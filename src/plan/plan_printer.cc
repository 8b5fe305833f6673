#include "plan/plan_printer.h"

#include <cstdio>

#include "plan/plan_cost.h"
#include "plan/plan_serde.h"

namespace caqp {

namespace {

void PrintNode(const CompiledPlan& plan, uint32_t index, const Schema& schema,
               int indent, const char* label, std::string* out) {
  for (int i = 0; i < indent; ++i) *out += "  ";
  if (*label) {
    *out += label;
    *out += " ";
  }
  const CompiledPlan::Node& n = plan.node(index);
  char buf[160];
  switch (n.kind) {
    case CompiledPlan::Kind::kSplit:
      std::snprintf(buf, sizeof(buf), "if %s >= %u:",
                    schema.name(n.attr).c_str(),
                    static_cast<unsigned>(n.split_value));
      *out += buf;
      *out += "\n";
      PrintNode(plan, n.a, schema, indent + 1, "then", out);
      PrintNode(plan, CompiledPlan::LtChild(index), schema, indent + 1, "else",
                out);
      break;
    case CompiledPlan::Kind::kVerdict:
      *out += n.verdict() ? "=> PASS" : "=> FAIL";
      *out += "\n";
      break;
    case CompiledPlan::Kind::kSequential: {
      *out += "eval:";
      const std::span<const Predicate> seq = plan.sequence(n);
      if (seq.empty()) {
        *out += " (nothing) => PASS";
      } else {
        for (const Predicate& p : seq) {
          *out += " [" + p.ToString(schema) + "]";
        }
      }
      *out += "\n";
      break;
    }
    case CompiledPlan::Kind::kGeneric: {
      *out += "acquire {";
      const std::span<const AttrId> order = plan.acquire_order(n);
      for (size_t i = 0; i < order.size(); ++i) {
        if (i) *out += ", ";
        *out += schema.name(order[i]);
      }
      *out +=
          "} until " + plan.residual_query(n).ToString(schema) + " resolves\n";
      break;
    }
  }
}

}  // namespace

std::string PrintPlan(const CompiledPlan& plan, const Schema& schema) {
  std::string out;
  PrintNode(plan, 0, schema, 0, "", &out);
  return out;
}

namespace {

void ExplainNode(const CompiledPlan& plan, uint32_t index,
                 const RangeVec& ranges, double reach, CondProbEstimator& est,
                 const AcquisitionCostModel& cm, int indent, const char* label,
                 std::string* out) {
  for (int i = 0; i < indent; ++i) *out += "  ";
  if (*label) {
    *out += label;
    *out += " ";
  }
  const Schema& schema = est.schema();
  const CompiledPlan::Node& n = plan.node(index);
  char buf[192];
  const double cost = ExpectedSubplanCost(plan, index, ranges, est, cm);
  switch (n.kind) {
    case CompiledPlan::Kind::kSplit: {
      const ValueRange r = ranges[n.attr];
      const ValueRange lt_r{r.lo, static_cast<Value>(n.split_value - 1)};
      const ValueRange ge_r{n.split_value, r.hi};
      const double p_lt =
          (n.split_value > r.lo && n.split_value <= r.hi)
              ? est.RangeProbability(ranges, n.attr, lt_r)
              : (n.split_value > r.hi ? 1.0 : 0.0);
      std::snprintf(buf, sizeof(buf),
                    "if %s >= %u:  [reach=%.3f cost=%.2f]",
                    schema.name(n.attr).c_str(),
                    static_cast<unsigned>(n.split_value), reach, cost);
      *out += buf;
      *out += "\n";
      const RangeVec ge_ranges =
          (n.split_value <= r.hi && n.split_value > r.lo)
              ? Refined(ranges, n.attr, ge_r)
              : ranges;
      const RangeVec lt_ranges =
          (n.split_value > r.lo && n.split_value <= r.hi)
              ? Refined(ranges, n.attr, lt_r)
              : ranges;
      ExplainNode(plan, n.a, ge_ranges, reach * (1.0 - p_lt), est, cm,
                  indent + 1, "then", out);
      ExplainNode(plan, CompiledPlan::LtChild(index), lt_ranges, reach * p_lt,
                  est, cm, indent + 1, "else", out);
      break;
    }
    case CompiledPlan::Kind::kVerdict:
      std::snprintf(buf, sizeof(buf), "=> %s  [reach=%.3f]",
                    n.verdict() ? "PASS" : "FAIL", reach);
      *out += buf;
      *out += "\n";
      break;
    case CompiledPlan::Kind::kSequential: {
      std::snprintf(buf, sizeof(buf), "eval  [reach=%.3f cost=%.2f]:", reach,
                    cost);
      *out += buf;
      for (const Predicate& p : plan.sequence(n)) {
        *out += " [" + p.ToString(schema) + "]";
      }
      *out += "\n";
      break;
    }
    case CompiledPlan::Kind::kGeneric:
      std::snprintf(buf, sizeof(buf),
                    "acquire-until-resolved  [reach=%.3f cost=%.2f]\n", reach,
                    cost);
      *out += buf;
      break;
  }
}

}  // namespace

std::string ExplainPlan(const CompiledPlan& plan, CondProbEstimator& estimator,
                        const AcquisitionCostModel& cost_model) {
  std::string out;
  ExplainNode(plan, 0, estimator.schema().FullRanges(), 1.0, estimator,
              cost_model, 0, "", &out);
  return out;
}

std::string PlanSummary(const CompiledPlan& plan) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "splits=%zu depth=%zu size=%zuB",
                static_cast<size_t>(plan.NumSplits()),
                static_cast<size_t>(plan.Depth()), PlanSizeBytes(plan));
  return buf;
}

std::string DumpCompiledPlan(const CompiledPlan& plan, const Schema& schema) {
  std::string out;
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "CompiledPlan nodes=%zu splits=%zu depth=%zu size=%zuB\n",
                static_cast<size_t>(plan.NumNodes()),
                static_cast<size_t>(plan.NumSplits()),
                static_cast<size_t>(plan.Depth()), PlanSizeBytes(plan));
  out += buf;
  for (uint32_t i = 0; i < plan.NumNodes(); ++i) {
    const CompiledPlan::Node& n = plan.node(i);
    switch (n.kind) {
      case CompiledPlan::Kind::kSplit:
        std::snprintf(buf, sizeof(buf),
                      "%4u: split   %s >= %u  lt=%u ge=%u%s\n", i,
                      schema.name(n.attr).c_str(),
                      static_cast<unsigned>(n.split_value),
                      CompiledPlan::LtChild(i), n.a,
                      n.first_acquisition() ? "  [first-acq]" : "");
        out += buf;
        break;
      case CompiledPlan::Kind::kVerdict:
        std::snprintf(buf, sizeof(buf), "%4u: verdict %s\n", i,
                      n.verdict() ? "PASS" : "FAIL");
        out += buf;
        break;
      case CompiledPlan::Kind::kSequential: {
        std::snprintf(buf, sizeof(buf), "%4u: seq     preds[%u..%u):", i, n.a,
                      n.a + n.b);
        out += buf;
        for (const Predicate& p : plan.sequence(n)) {
          out += " [" + p.ToString(schema) + "]";
        }
        out += "\n";
        break;
      }
      case CompiledPlan::Kind::kGeneric: {
        std::snprintf(buf, sizeof(buf), "%4u: generic query=%u order={", i,
                      static_cast<unsigned>(n.aux));
        out += buf;
        const std::span<const AttrId> order = plan.acquire_order(n);
        for (size_t k = 0; k < order.size(); ++k) {
          if (k) out += ", ";
          out += schema.name(order[k]);
        }
        out += "} " + plan.residual_query(n).ToString(schema) + "\n";
        break;
      }
    }
  }
  return out;
}

}  // namespace caqp
