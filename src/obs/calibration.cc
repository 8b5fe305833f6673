#include "obs/calibration.h"

#include <array>
#include <utility>

#include "core/schema.h"
#include "obs/export.h"

namespace caqp {
namespace obs {

namespace {

uint64_t SubSat(uint64_t a, uint64_t b) { return a > b ? a - b : 0; }
double SubSatD(double a, double b) { return a > b ? a - b : 0.0; }

const char* KindName(PlanNode::Kind k) {
  switch (k) {
    case PlanNode::Kind::kSplit:
      return "split";
    case PlanNode::Kind::kVerdict:
      return "verdict";
    case PlanNode::Kind::kSequential:
      return "sequential";
    case PlanNode::Kind::kGeneric:
      return "generic";
  }
  return "?";
}

}  // namespace

double CalibrationReport::regret() const {
  double realized = 0.0, predicted = 0.0;
  uint64_t execs = 0;
  for (const PlanCalibration& p : plans) {
    if (!p.has_estimates || p.executions == 0) continue;
    realized += p.realized_cost;
    predicted += static_cast<double>(p.executions) * p.predicted_cost;
    execs += p.executions;
  }
  return execs > 0 ? (realized - predicted) / static_cast<double>(execs)
                   : 0.0;
}

double CalibrationReport::MaxDrift(uint64_t min_evals) const {
  double max_drift = 0.0;
  for (const AttrCalibration& a : attrs) {
    if (a.evals < min_evals) continue;
    max_drift = std::max(max_drift, a.drift());
  }
  return max_drift;
}

CalibrationReport CalibrationReport::DeltaSince(
    const CalibrationReport& prev) const {
  CalibrationReport out;

  std::unordered_map<PlanKey, const PlanCalibration*, PlanKeyHash> prev_plans;
  prev_plans.reserve(prev.plans.size());
  for (const PlanCalibration& p : prev.plans) prev_plans[p.key] = &p;

  for (const PlanCalibration& cur : plans) {
    const auto it = prev_plans.find(cur.key);
    const PlanCalibration* old = it == prev_plans.end() ? nullptr : it->second;
    PlanCalibration d = cur;
    if (old != nullptr) {
      d.executions = SubSat(cur.executions, old->executions);
      d.unknown_executions =
          SubSat(cur.unknown_executions, old->unknown_executions);
      d.acquisitions = SubSat(cur.acquisitions, old->acquisitions);
      d.realized_cost = SubSatD(cur.realized_cost, old->realized_cost);
      for (size_t i = 0; i < d.nodes.size(); ++i) {
        if (i >= old->nodes.size()) break;
        d.nodes[i].evals = SubSat(cur.nodes[i].evals, old->nodes[i].evals);
        d.nodes[i].passes = SubSat(cur.nodes[i].passes, old->nodes[i].passes);
        d.nodes[i].unknowns =
            SubSat(cur.nodes[i].unknowns, old->nodes[i].unknowns);
      }
    }
    if (d.executions == 0) continue;  // no activity this window
    out.executions += d.executions;
    out.realized_cost += d.realized_cost;
    if (d.has_estimates) {
      out.predicted_cost +=
          static_cast<double>(d.executions) * d.predicted_cost;
    }
    out.plans.push_back(std::move(d));
  }

  std::unordered_map<AttrId, const AttrCalibration*> prev_attrs;
  prev_attrs.reserve(prev.attrs.size());
  for (const AttrCalibration& a : prev.attrs) prev_attrs[a.attr] = &a;
  for (const AttrCalibration& cur : attrs) {
    const auto it = prev_attrs.find(cur.attr);
    const AttrCalibration* old = it == prev_attrs.end() ? nullptr : it->second;
    AttrCalibration d = cur;
    if (old != nullptr) {
      d.evals = SubSat(cur.evals, old->evals);
      d.passes = SubSat(cur.passes, old->passes);
      d.predicted_evals = SubSatD(cur.predicted_evals, old->predicted_evals);
      d.predicted_passes =
          SubSatD(cur.predicted_passes, old->predicted_passes);
    }
    if (d.evals == 0 && d.predicted_evals <= 0) continue;
    out.attrs.push_back(d);
  }
  return out;
}

std::string CalibrationReportToJson(const CalibrationReport& report,
                                    const Schema* schema) {
  JsonWriter w;
  w.BeginObject();
  w.Key("executions").UInt(report.executions);
  w.Key("realized_cost").Double(report.realized_cost);
  w.Key("predicted_cost").Double(report.predicted_cost);
  w.Key("regret").Double(report.regret());
  w.Key("max_drift").Double(report.MaxDrift());
  w.Key("plans").BeginArray();
  for (const PlanCalibration& p : report.plans) {
    w.BeginObject();
    w.Key("query_sig").UInt(p.key.query_sig);
    w.Key("estimator_version").UInt(p.key.estimator_version);
    w.Key("planner_fingerprint").UInt(p.key.planner_fingerprint);
    w.Key("executions").UInt(p.executions);
    w.Key("unknown_executions").UInt(p.unknown_executions);
    w.Key("acquisitions").UInt(p.acquisitions);
    w.Key("has_estimates").Bool(p.has_estimates);
    w.Key("predicted_cost").Double(p.predicted_cost);
    if (p.has_cost_bounds) {
      w.Key("predicted_cost_lo").Double(p.predicted_cost_lo);
      w.Key("predicted_cost_hi").Double(p.predicted_cost_hi);
    }
    w.Key("realized_mean_cost").Double(p.realized_mean_cost());
    w.Key("regret").Double(p.regret());
    w.Key("nodes").BeginArray();
    for (const NodeCalibration& n : p.nodes) {
      w.BeginObject();
      w.Key("node").UInt(n.node);
      w.Key("kind").String(KindName(n.kind));
      if (n.attr != kInvalidAttr) {
        w.Key("attr").UInt(n.attr);
        if (schema != nullptr) w.Key("name").String(schema->name(n.attr));
      }
      w.Key("predicted_reach").Double(n.predicted_reach);
      if (n.predicted_pass >= 0) {
        w.Key("predicted_pass").Double(n.predicted_pass);
      }
      w.Key("evals").UInt(n.evals);
      w.Key("passes").UInt(n.passes);
      w.Key("unknowns").UInt(n.unknowns);
      if (n.has_observation()) {
        w.Key("observed_pass").Double(n.observed_pass());
      }
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.Key("attrs").BeginArray();
  for (const AttrCalibration& a : report.attrs) {
    w.BeginObject();
    w.Key("attr").UInt(a.attr);
    if (schema != nullptr) w.Key("name").String(schema->name(a.attr));
    w.Key("evals").UInt(a.evals);
    w.Key("passes").UInt(a.passes);
    w.Key("predicted_evals").Double(a.predicted_evals);
    w.Key("predicted_passes").Double(a.predicted_passes);
    w.Key("observed_pass_rate").Double(a.observed_pass_rate());
    w.Key("predicted_pass_rate").Double(a.predicted_pass_rate());
    w.Key("drift").Double(a.drift());
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

CalibrationAggregator::CalibrationAggregator(size_t num_shards) {
  shards_.reserve(std::max<size_t>(1, num_shards));
  for (size_t i = 0; i < std::max<size_t>(1, num_shards); ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ExecutionProfile* CalibrationAggregator::Profile(
    size_t worker, const PlanKey& key,
    std::shared_ptr<const CompiledPlan> plan) {
  const size_t num_nodes = plan != nullptr ? plan->NumNodes() : 1;
  Shard& shard = *shards_[worker % shards_.size()];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    it = shard.entries
             .emplace(key,
                      std::make_unique<Entry>(std::move(plan), num_nodes))
             .first;
  }
  ExecutionProfile* profile = &it->second->profile;
  return profile->num_nodes() == num_nodes ? profile : nullptr;
}

CalibrationReport CalibrationAggregator::Snapshot() const {
  struct Merged {
    std::shared_ptr<const CompiledPlan> plan;
    ExecutionProfileSnapshot snap;
  };
  std::unordered_map<PlanKey, Merged, PlanKeyHash> merged;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [key, entry] : shard->entries) {
      Merged& m = merged[key];
      if (m.plan == nullptr) m.plan = entry->plan;
      m.snap.MergeFrom(entry->profile.Snapshot());
    }
  }

  CalibrationReport report;
  std::array<AttrCalibration, kMaxAttributes> attrs{};
  for (auto& [key, m] : merged) {
    const PlanEstimates* est =
        m.plan != nullptr ? m.plan->estimates() : nullptr;
    PlanCalibration pc;
    pc.key = key;
    pc.executions = m.snap.executions;
    pc.unknown_executions = m.snap.unknown_executions;
    pc.acquisitions = m.snap.acquisitions;
    pc.realized_cost = m.snap.realized_cost;
    pc.has_estimates = est != nullptr;
    pc.predicted_cost = est != nullptr ? est->expected_cost : 0.0;
    if (est != nullptr && est->has_cost_bounds) {
      pc.has_cost_bounds = true;
      pc.predicted_cost_lo = est->cost_lo;
      pc.predicted_cost_hi = est->cost_hi;
    }
    const size_t num_nodes = m.plan != nullptr ? m.plan->NumNodes() : 0;
    pc.nodes.reserve(num_nodes);
    for (uint32_t i = 0; i < num_nodes; ++i) {
      const CompiledPlan::Node& node = m.plan->node(i);
      NodeCalibration nc;
      nc.node = i;
      nc.kind = node.kind;
      if (node.kind == PlanNode::Kind::kSplit) nc.attr = node.attr;
      if (est != nullptr && i < est->nodes.size()) {
        nc.predicted_reach = est->nodes[i].reach;
        nc.predicted_pass = est->nodes[i].pass;
      }
      if (i < m.snap.nodes.size()) {
        nc.evals = m.snap.nodes[i].evals;
        nc.passes = m.snap.nodes[i].passes;
        nc.unknowns = m.snap.nodes[i].unknowns;
      }
      pc.nodes.push_back(nc);
    }

    report.executions += pc.executions;
    report.realized_cost += pc.realized_cost;
    if (pc.has_estimates) {
      report.predicted_cost +=
          static_cast<double>(pc.executions) * pc.predicted_cost;
    }
    for (size_t a = 0; a < attrs.size(); ++a) {
      attrs[a].evals += m.snap.attr_evals[a];
      attrs[a].passes += m.snap.attr_passes[a];
      if (est != nullptr) {
        attrs[a].predicted_evals += static_cast<double>(pc.executions) *
                                    est->attr_eval_rate[a];
        attrs[a].predicted_passes += static_cast<double>(pc.executions) *
                                     est->attr_pass_rate[a];
      }
    }
    report.plans.push_back(std::move(pc));
  }

  // Deterministic output order (unordered_map iteration is not).
  std::sort(report.plans.begin(), report.plans.end(),
            [](const PlanCalibration& a, const PlanCalibration& b) {
              return a.key < b.key;
            });
  for (size_t a = 0; a < attrs.size(); ++a) {
    if (attrs[a].evals == 0 && attrs[a].predicted_evals <= 0) continue;
    attrs[a].attr = static_cast<AttrId>(a);
    report.attrs.push_back(attrs[a]);
  }
  return report;
}

}  // namespace obs
}  // namespace caqp
