// Plan structure (built as a tree, checked on its compiled form), verdict
// semantics, serialization roundtrips and corruption handling, and the
// pretty printer.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/executor.h"
#include "plan/compiled_plan.h"
#include "plan/plan.h"
#include "plan/plan_printer.h"
#include "plan/plan_serde.h"
#include "test_util.h"

namespace caqp {
namespace {

using testing_util::SmallSchema;

Plan SampleTree() {
  // if exp0 >= 2: eval [cheap0 in [1,2]] else: FAIL
  auto seq = PlanNode::Sequential({Predicate(0, 1, 2)});
  auto root = PlanNode::Split(2, 2, PlanNode::Verdict(false), std::move(seq));
  return Plan(std::move(root));
}

CompiledPlan SamplePlan() { return CompiledPlan::Compile(SampleTree()); }

/// The verdict ExecutePlan reaches for `t` under infallible acquisition.
bool Verdict(const CompiledPlan& plan, const Tuple& t) {
  const Schema schema = SmallSchema();
  const PerAttributeCostModel cm(schema);
  TupleSource source(t);
  return ExecutePlan(plan, schema, cm, source).verdict;
}

TEST(PlanTest, CountsAndDepth) {
  const CompiledPlan p = SamplePlan();
  EXPECT_EQ(p.NumSplits(), 1u);
  EXPECT_EQ(p.NumNodes(), 3u);
  EXPECT_EQ(p.Depth(), 1u);
}

TEST(PlanTest, DefaultPlanRejectsEverything) {
  const CompiledPlan p = CompiledPlan::Compile(Plan());
  EXPECT_FALSE(Verdict(p, {0, 0, 0, 0}));
  EXPECT_EQ(p.NumSplits(), 0u);
}

TEST(PlanTest, VerdictFollowsSplits) {
  const CompiledPlan p = SamplePlan();
  // exp0 (attr 2) < 2 -> FAIL regardless.
  EXPECT_FALSE(Verdict(p, {1, 0, 1, 0}));
  // exp0 >= 2 -> sequential leaf on cheap0 in [1,2].
  EXPECT_TRUE(Verdict(p, {1, 0, 2, 0}));
  EXPECT_FALSE(Verdict(p, {3, 0, 2, 0}));
}

TEST(PlanTest, CloneIsDeep) {
  const Plan p = SampleTree();
  const Plan copy = p.Clone();  // explicit deep clone; copy ctor is deleted
  EXPECT_NE(&copy.root(), &p.root());
  EXPECT_NE(copy.root().ge.get(), p.root().ge.get());
  const CompiledPlan compiled = CompiledPlan::Compile(copy);
  EXPECT_EQ(compiled.NumNodes(), 3u);
  EXPECT_TRUE(Verdict(compiled, {1, 0, 2, 0}));
}

TEST(PlanTest, GenericLeafVerdict) {
  Query q = Query::Disjunction(
      {{Predicate(0, 3, 3)}, {Predicate(2, 0, 0), Predicate(1, 0, 1)}});
  const CompiledPlan p =
      CompiledPlan::Compile(*PlanNode::Generic(q, {0, 2, 1}));
  EXPECT_TRUE(Verdict(p, {3, 5, 3, 0}));   // first disjunct
  EXPECT_TRUE(Verdict(p, {0, 1, 0, 0}));   // second disjunct
  EXPECT_FALSE(Verdict(p, {0, 5, 0, 0}));  // neither
}

TEST(PlanSerdeTest, RoundtripSequentialLeaf) {
  const Schema schema = SmallSchema();
  const CompiledPlan p = CompiledPlan::Compile(*PlanNode::Sequential(
      {Predicate(2, 1, 2), Predicate(0, 0, 1, /*neg=*/true)}));
  const auto bytes = SerializePlan(p);
  auto back = DeserializeCompiledPlan(bytes, schema);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->root().kind, CompiledPlan::Kind::kSequential);
  ASSERT_EQ(back->sequence(back->root()).size(), 2u);
  EXPECT_EQ(back->sequence(back->root())[1], Predicate(0, 0, 1, true));
}

TEST(PlanSerdeTest, RoundtripSplitTree) {
  const Schema schema = SmallSchema();
  const CompiledPlan p = SamplePlan();
  auto back = DeserializeCompiledPlan(SerializePlan(p), schema);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumSplits(), 1u);
  // Behavioral equality over the full domain.
  Tuple t(4, 0);
  for (Value a = 0; a < 4; ++a) {
    for (Value c = 0; c < 4; ++c) {
      t[0] = a;
      t[2] = c;
      EXPECT_EQ(Verdict(*back, t), Verdict(p, t));
    }
  }
}

TEST(PlanSerdeTest, RoundtripGenericLeaf) {
  const Schema schema = SmallSchema();
  Query q = Query::Disjunction(
      {{Predicate(0, 1, 2)}, {Predicate(3, 0, 0), Predicate(2, 3, 3)}});
  const CompiledPlan p =
      CompiledPlan::Compile(*PlanNode::Generic(q, {0, 3, 2}));
  auto back = DeserializeCompiledPlan(SerializePlan(p), schema);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->root().kind, CompiledPlan::Kind::kGeneric);
  const std::span<const AttrId> order = back->acquire_order(back->root());
  EXPECT_EQ(std::vector<AttrId>(order.begin(), order.end()),
            (std::vector<AttrId>{0, 3, 2}));
  EXPECT_EQ(back->residual_query(back->root()).conjuncts().size(), 2u);
}

TEST(PlanSerdeTest, SizeIsCompact) {
  const CompiledPlan p = SamplePlan();
  // Flat encoding: version + node count + split (kind/attr/value/ge-index)
  // + verdict leaf (2) + seq leaf (2 + 4 per predicate).
  EXPECT_LE(PlanSizeBytes(p), 16u);
}

TEST(PlanSerdeTest, RejectsTrailingGarbage) {
  const Schema schema = SmallSchema();
  auto bytes = SerializePlan(SamplePlan());
  bytes.push_back(0x7);
  EXPECT_EQ(DeserializeCompiledPlan(bytes, schema).status().code(),
            StatusCode::kDataLoss);
}

TEST(PlanSerdeTest, RejectsTruncation) {
  const Schema schema = SmallSchema();
  auto bytes = SerializePlan(SamplePlan());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<uint8_t> trunc(bytes.begin(), bytes.begin() + cut);
    EXPECT_FALSE(DeserializeCompiledPlan(trunc, schema).ok())
        << "cut=" << cut;
  }
}

TEST(PlanSerdeTest, RejectsOutOfSchemaAttr) {
  const CompiledPlan p =
      CompiledPlan::Compile(*PlanNode::Sequential({Predicate(3, 0, 1)}));
  auto bytes = SerializePlan(p);
  Schema tiny;
  tiny.AddAttribute("only", 4, 1.0);
  EXPECT_FALSE(DeserializeCompiledPlan(bytes, tiny).ok());
}

TEST(PlanSerdeTest, RejectsOutOfDomainSplitValue) {
  const CompiledPlan p = CompiledPlan::Compile(*PlanNode::Split(
      0, 3, PlanNode::Verdict(false), PlanNode::Verdict(true)));
  auto bytes = SerializePlan(p);
  Schema binary;
  binary.AddAttribute("a", 2, 1.0);  // split at 3 is out of domain 2
  EXPECT_FALSE(DeserializeCompiledPlan(bytes, binary).ok());
}

TEST(PlanSerdeTest, RandomBitFlipsNeverCrash) {
  const Schema schema = SmallSchema();
  const auto bytes = SerializePlan(SamplePlan());
  Rng rng(33);
  for (int iter = 0; iter < 500; ++iter) {
    auto corrupted = bytes;
    const size_t pos =
        static_cast<size_t>(rng.UniformInt(0, corrupted.size() - 1));
    corrupted[pos] ^= static_cast<uint8_t>(1u << rng.UniformInt(0, 7));
    // Must either parse to a valid plan or fail cleanly; never crash.
    auto result = DeserializeCompiledPlan(corrupted, schema);
    if (result.ok()) {
      EXPECT_GE(result->NumNodes(), 1u);
    }
  }
}

TEST(PlanPrinterTest, RendersTree) {
  const Schema schema = SmallSchema();
  const std::string out = PrintPlan(SamplePlan(), schema);
  EXPECT_NE(out.find("if exp0 >= 2"), std::string::npos);
  EXPECT_NE(out.find("=> FAIL"), std::string::npos);
  EXPECT_NE(out.find("cheap0 in [1,2]"), std::string::npos);
}

TEST(PlanPrinterTest, SummaryContainsCounts) {
  const std::string s = PlanSummary(SamplePlan());
  EXPECT_NE(s.find("splits=1"), std::string::npos);
  EXPECT_NE(s.find("depth=1"), std::string::npos);
}

}  // namespace
}  // namespace caqp
