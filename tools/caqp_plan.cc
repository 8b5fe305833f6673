// caqp_plan: command-line planner. Loads a CSV of historical readings,
// builds a conditional plan for a conjunctive range query, explains it, and
// reports train/test costs against the Naive baseline.
//
// Example:
//   caqp_plan --csv lab.csv --attr hour:24:1 --attr light:16:100
//     --attr temp:16:100 --where light:5:15 --where temp:0:7
//     --planner heuristic --max-splits 5 --train-frac 0.6 --explain
//
// Planners: naive | corrseq | heuristic | exhaustive | regret. The regret
// planner wraps the heuristic point plan in a minmax-regret sweep over a
// symmetric --uncertainty=eps box (opt/regret.h).
//
// Run `caqp_plan --help` for the full grouped flag listing.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/csv.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "opt/exhaustive.h"
#include "opt/greedy_plan.h"
#include "opt/greedyseq.h"
#include "opt/naive.h"
#include "opt/optseq.h"
#include "opt/regret.h"
#include "opt/uncertainty.h"
#include "plan/plan_cost.h"
#include "plan/plan_printer.h"
#include "plan/plan_serde.h"
#include "prob/dataset_estimator.h"

using namespace caqp;

namespace {

struct WhereSpec {
  std::string name;
  Value lo = 0;
  Value hi = 0;
  bool negated = false;
};

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "caqp_plan: %s\n", msg.c_str());
  std::exit(1);
}

std::vector<std::string> SplitColon(const std::string& s) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(':', start);
    if (pos == std::string::npos) {
      parts.push_back(s.substr(start));
      break;
    }
    parts.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

long ParseLong(const std::string& s, const std::string& what) {
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') Die("bad " + what + ": '" + s + "'");
  return v;
}

void PrintHelp() {
  std::printf(
      "caqp_plan: build a conditional plan for a conjunctive range query\n"
      "over a CSV of historical readings, explain it, and report train/test\n"
      "costs against the Naive baseline.\n"
      "\n"
      "input\n"
      "  --csv PATH            CSV of historical readings (required)\n"
      "  --attr NAME:BINS:COST discretization + acquisition cost per column\n"
      "                        (required, repeatable)\n"
      "  --where NAME:LO:HI[:not]  conjunctive range predicate over\n"
      "                        discretized bins (required, repeatable)\n"
      "  --train-frac F        head fraction used for training (default 0.6)\n"
      "\n"
      "planning\n"
      "  --planner P           naive | corrseq | heuristic | exhaustive |\n"
      "                        regret (default heuristic)\n"
      "  --max-splits K        heuristic split budget (default 5)\n"
      "  --spsf LOG10          split-point budget (default: all points)\n"
      "\n"
      "robustness\n"
      "  --uncertainty EPS     plan under a symmetric +-EPS pass-probability\n"
      "                        uncertainty box; with --planner regret the\n"
      "                        plan minimizes worst-case regret over the\n"
      "                        box's corners (EPS 0 reproduces the point\n"
      "                        plan; also accepts --uncertainty=EPS)\n"
      "\n"
      "output\n"
      "  --explain             annotate the plan with reach/cost estimates\n"
      "  --emit tree|flat      pretty tree (default) or the compiled flat\n"
      "                        IR, one node per line (also --emit=flat)\n"
      "  --trace-out PATH      JSONL execution trace of the test run: one\n"
      "                        line per tuple plus a summary line with\n"
      "                        per-attribute acquisition histograms\n");
}

/// TraceSink that writes one JSON line per executed tuple: the acquisition
/// order with per-attribute marginal costs, the branch path through the
/// split tree, and the final verdict.
class JsonlTraceSink : public TraceSink {
 public:
  JsonlTraceSink(std::ofstream& out, const Schema& schema)
      : out_(out), schema_(schema) {}

  void OnAcquire(AttrId attr, Value value, double marginal_cost) override {
    acquisitions_.push_back({attr, value, marginal_cost});
  }
  void OnBranch(AttrId attr, Value split_value, bool went_ge) override {
    branches_.push_back({attr, split_value, went_ge});
  }
  void OnVerdict(bool verdict, double total_cost) override {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("tuple").UInt(tuple_++);
    w.Key("acquisitions").BeginArray();
    for (const TraceAcquisition& a : acquisitions_) {
      w.BeginObject();
      w.Key("attr").String(schema_.name(a.attr));
      w.Key("value").UInt(a.value);
      w.Key("cost").Double(a.cost);
      w.EndObject();
    }
    w.EndArray();
    w.Key("branches").BeginArray();
    for (const TraceBranch& b : branches_) {
      w.BeginObject();
      w.Key("attr").String(schema_.name(b.attr));
      w.Key("split_value").UInt(b.split_value);
      w.Key("went_ge").Bool(b.went_ge);
      w.EndObject();
    }
    w.EndArray();
    w.Key("verdict").Bool(verdict);
    w.Key("cost").Double(total_cost);
    w.EndObject();
    out_ << w.str() << "\n";
    acquisitions_.clear();
    branches_.clear();
  }

 private:
  std::ofstream& out_;
  const Schema& schema_;
  uint64_t tuple_ = 0;
  std::vector<TraceAcquisition> acquisitions_;
  std::vector<TraceBranch> branches_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string csv_path;
  std::vector<CsvColumnSpec> attrs;
  std::vector<WhereSpec> wheres;
  std::string planner_name = "heuristic";
  size_t max_splits = 5;
  double train_frac = 0.6;
  double spsf_log10 = -1.0;  // <0: all points
  double uncertainty_eps = 0.0;
  bool explain = false;
  std::string emit = "tree";
  std::string trace_out;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value after " + arg);
      return argv[++i];
    };
    if (arg == "--csv") {
      csv_path = next();
    } else if (arg == "--attr") {
      const auto parts = SplitColon(next());
      if (parts.size() != 3) Die("--attr expects NAME:BINS:COST");
      CsvColumnSpec spec;
      spec.name = parts[0];
      spec.bins = static_cast<uint32_t>(ParseLong(parts[1], "bins"));
      spec.cost = std::strtod(parts[2].c_str(), nullptr);
      attrs.push_back(spec);
    } else if (arg == "--where") {
      const auto parts = SplitColon(next());
      if (parts.size() != 3 && parts.size() != 4) {
        Die("--where expects NAME:LO:HI[:not]");
      }
      WhereSpec w;
      w.name = parts[0];
      w.lo = static_cast<Value>(ParseLong(parts[1], "lo"));
      w.hi = static_cast<Value>(ParseLong(parts[2], "hi"));
      w.negated = parts.size() == 4 && parts[3] == "not";
      wheres.push_back(w);
    } else if (arg == "--planner") {
      planner_name = next();
    } else if (arg == "--max-splits") {
      max_splits = static_cast<size_t>(ParseLong(next(), "max-splits"));
    } else if (arg == "--train-frac") {
      train_frac = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--spsf") {
      spsf_log10 = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--uncertainty") {
      uncertainty_eps = std::strtod(next().c_str(), nullptr);
    } else if (arg.rfind("--uncertainty=", 0) == 0) {
      uncertainty_eps = std::strtod(arg.c_str() + 14, nullptr);
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--emit") {
      emit = next();
    } else if (arg.rfind("--emit=", 0) == 0) {
      emit = arg.substr(7);
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else if (arg == "--help" || arg == "-h") {
      PrintHelp();
      return 0;
    } else {
      Die("unknown flag " + arg);
    }
  }
  if (csv_path.empty()) Die("--csv is required");
  if (attrs.empty()) Die("at least one --attr is required");
  if (wheres.empty()) Die("at least one --where is required");
  if (train_frac <= 0.0 || train_frac >= 1.0) {
    Die("--train-frac must be in (0,1)");
  }
  if (emit != "tree" && emit != "flat") Die("--emit expects tree or flat");
  if (uncertainty_eps < 0.0 || uncertainty_eps > 1.0) {
    Die("--uncertainty must be in [0,1]");
  }

  // --- Load and discretize ------------------------------------------------
  Result<CsvTable> table = LoadCsvFile(csv_path);
  if (!table.ok()) Die(table.status().ToString());
  Result<Dataset> loaded = DatasetFromCsv(*table, attrs);
  if (!loaded.ok()) Die(loaded.status().ToString());
  const auto [train, test] = loaded->SplitFraction(train_frac);
  const Schema& schema = loaded->schema();
  std::printf("loaded %zu rows (%zu train / %zu test), %zu attributes\n",
              loaded->num_rows(), train.num_rows(), test.num_rows(),
              schema.num_attributes());

  // --- Query --------------------------------------------------------------
  Conjunct preds;
  for (const WhereSpec& w : wheres) {
    const AttrId a = schema.FindAttribute(w.name);
    if (a == kInvalidAttr) Die("--where names unknown attribute " + w.name);
    if (w.lo > w.hi || w.hi >= schema.domain_size(a)) {
      Die("--where range out of domain for " + w.name);
    }
    preds.emplace_back(a, w.lo, w.hi, w.negated);
  }
  const Query query = Query::Conjunction(std::move(preds));
  if (!query.ValidFor(schema)) Die("invalid query (duplicate attribute?)");
  std::printf("query: %s\n\n", query.ToString(schema).c_str());

  // --- Plan ---------------------------------------------------------------
  if (train.num_rows() == 0) Die("empty training split");
  DatasetEstimator estimator(train);
  PerAttributeCostModel cost_model(schema);
  const SplitPointSet splits =
      spsf_log10 >= 0 ? SplitPointSet::FromLog10Spsf(schema, spsf_log10)
                      : SplitPointSet::AllPoints(schema);
  OptSeqSolver optseq;
  GreedySeqSolver greedyseq;
  const SequentialSolver& base =
      query.predicates().size() <= 12
          ? static_cast<const SequentialSolver&>(optseq)
          : static_cast<const SequentialSolver&>(greedyseq);

  NaivePlanner naive(estimator, cost_model);
  Plan tree;
  if (planner_name == "naive") {
    tree = naive.BuildPlan(query);
  } else if (planner_name == "corrseq") {
    SequentialPlanner planner(estimator, cost_model, base, "CorrSeq");
    tree = planner.BuildPlan(query);
  } else if (planner_name == "heuristic") {
    GreedyPlanner::Options opts;
    opts.split_points = &splits;
    opts.seq_solver = &base;
    opts.max_splits = max_splits;
    GreedyPlanner planner(estimator, cost_model, opts);
    tree = planner.BuildPlan(query);
  } else if (planner_name == "exhaustive") {
    ExhaustivePlanner::Options opts;
    opts.split_points = &splits;
    ExhaustivePlanner planner(estimator, cost_model, opts);
    tree = planner.BuildPlan(query);
  } else if (planner_name == "regret") {
    // Minmax regret over a symmetric +-eps box around the point estimates;
    // the heuristic plan is the point planner (candidate 0 + degenerate-box
    // fallback).
    GreedyPlanner::Options gopts;
    gopts.split_points = &splits;
    gopts.seq_solver = &base;
    gopts.max_splits = max_splits;
    GreedyPlanner point(estimator, cost_model, gopts);
    opt::RegretPlanner::Options ropts;
    ropts.point_planner = &point;
    ropts.box = opt::UncertaintyBox::Uniform(uncertainty_eps);
    opt::RegretPlanner planner(estimator, cost_model, std::move(ropts));
    tree = planner.BuildPlan(query);
    if (planner.stats().degenerate_fallback) {
      std::printf("regret: degenerate box (eps=%.3f), point plan kept\n",
                  uncertainty_eps);
    } else {
      std::printf(
          "regret: %zu candidates x %zu scenarios, worst-case regret "
          "%.3f (point plan's: %.3f)\n",
          planner.stats().candidates, planner.stats().scenarios,
          planner.stats().worst_case_regret,
          planner.stats().point_plan_regret);
    }
  } else {
    Die("unknown --planner " + planner_name);
  }
  const CompiledPlan plan = CompiledPlan::Compile(tree);

  if (emit == "flat") {
    std::printf("%s\n", DumpCompiledPlan(plan, schema).c_str());
  } else {
    std::printf("plan (%s):\n%s\n", PlanSummary(plan).c_str(),
                explain ? ExplainPlan(plan, estimator, cost_model).c_str()
                        : PrintPlan(plan, schema).c_str());
  }

  // --- Costs --------------------------------------------------------------
  const CompiledPlan naive_plan =
      CompiledPlan::Compile(naive.BuildPlan(query));
  const auto r_train = EmpiricalPlanCost(plan, train, query, cost_model);

  // The test pass optionally streams a JSONL trace: one line per tuple,
  // then one {"summary": ...} line with the acquisition histogram.
  std::ofstream trace_file;
  std::unique_ptr<JsonlTraceSink> jsonl;
  AttributeProfile profile(schema.num_attributes());
  std::unique_ptr<TeeTraceSink> tee;
  TraceSink* sink = nullptr;
  if (!trace_out.empty()) {
    trace_file.open(trace_out);
    if (!trace_file) Die("cannot open --trace-out " + trace_out);
    jsonl = std::make_unique<JsonlTraceSink>(trace_file, schema);
    tee = std::make_unique<TeeTraceSink>(jsonl.get(), &profile);
    sink = tee.get();
  }
  const auto r_test = EmpiricalPlanCost(plan, test, query, cost_model, sink);
  if (sink != nullptr) {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("summary");
    obs::WriteAttributeProfile(w, profile, &schema);
    w.EndObject();
    trace_file << w.str() << "\n";
    trace_file.close();
    std::printf("[wrote %s: %zu tuple traces + summary]\n", trace_out.c_str(),
                r_test.tuples);
  }
  const auto n_test = EmpiricalPlanCost(naive_plan, test, query, cost_model);
  std::printf("mean cost: train=%.2f test=%.2f (naive test=%.2f, gain %.2fx)\n",
              r_train.mean_cost, r_test.mean_cost, n_test.mean_cost,
              r_test.mean_cost > 0 ? n_test.mean_cost / r_test.mean_cost
                                   : 1.0);
  std::printf("verdict errors on test: %zu of %zu tuples\n",
              r_test.verdict_errors, r_test.tuples);
  return 0;
}
