// Deterministic byte-mutation fuzzing of the plan wire format: plans arrive
// over a lossy, corrupting radio, so DeserializeCompiledPlan must reject or
// safely accept ANY mutation of a valid encoding — never crash, never install
// a malformed plan. Run under ASan in scripts/check.sh to catch OOB reads the
// Status paths might hide.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "exec/result_serde.h"
#include "net/mote.h"
#include "opt/greedyseq.h"
#include "opt/optseq.h"
#include "plan/plan_serde.h"
#include "plan/plan_verify.h"
#include "test_util.h"

namespace caqp {
namespace {

using testing_util::CorrelatedDataset;
using testing_util::SmallSchema;

/// Applies one seeded mutation (bit flips, truncation, or extension) to a
/// copy of `bytes`.
std::vector<uint8_t> Mutate(const std::vector<uint8_t>& bytes, Rng& rng) {
  std::vector<uint8_t> out = bytes;
  switch (rng.UniformInt(0, 2)) {
    case 0: {  // flip 1-4 random bits
      const int flips = static_cast<int>(rng.UniformInt(1, 4));
      for (int i = 0; i < flips && !out.empty(); ++i) {
        const size_t pos = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(out.size()) - 1));
        out[pos] ^= static_cast<uint8_t>(1u << rng.UniformInt(0, 7));
      }
      break;
    }
    case 1: {  // truncate to a random prefix
      out.resize(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(out.size()))));
      break;
    }
    default: {  // append random garbage
      const int extra = static_cast<int>(rng.UniformInt(1, 16));
      for (int i = 0; i < extra; ++i) {
        out.push_back(static_cast<uint8_t>(rng.UniformInt(0, 255)));
      }
      break;
    }
  }
  return out;
}

/// A small corpus of structurally diverse valid plans.
std::vector<CompiledPlan> BuildCorpus(const Schema& schema) {
  std::vector<CompiledPlan> corpus;
  corpus.push_back(CompiledPlan::Compile(*PlanNode::Verdict(true)));
  corpus.push_back(CompiledPlan::Compile(*PlanNode::Sequential(
      {Predicate(0, 1, 2), Predicate(2, 0, 1), Predicate(3, 2, 4, true)})));
  corpus.push_back(CompiledPlan::Compile(*PlanNode::Split(
      0, 2, PlanNode::Sequential({Predicate(2, 1, 3)}),
      PlanNode::Split(1, 3, PlanNode::Verdict(false),
                      PlanNode::Sequential({Predicate(3, 0, 2)})))));
  const Query q =
      Query::Conjunction({Predicate(1, 1, 4), Predicate(2, 0, 2)});
  corpus.push_back(CompiledPlan::Compile(*PlanNode::Generic(q, {1, 2})));
  (void)schema;
  return corpus;
}

TEST(SerdeFuzzTest, MutatedPlanBytesNeverCrashOrInstallMalformedPlans) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  const std::vector<CompiledPlan> corpus = BuildCorpus(schema);

  size_t accepted = 0, rejected = 0;
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    Rng rng(seed);
    for (const CompiledPlan& plan : corpus) {
      const std::vector<uint8_t> bytes = SerializePlan(plan);
      for (int round = 0; round < 40; ++round) {
        const std::vector<uint8_t> mutated = Mutate(bytes, rng);
        Mote mote(0, schema, cm, [](size_t, AttrId) { return Value{0}; });
        const Status st = mote.ReceivePlanBytes(mutated);
        if (st.ok()) {
          ++accepted;
          // Whatever survived decoding must be a fully valid plan...
          ASSERT_TRUE(mote.has_plan());
          ASSERT_NE(mote.installed_plan(), nullptr);
          EXPECT_TRUE(PlanIsWellFormed(*mote.installed_plan(), schema));
          // ...and executable without tripping any executor invariant.
          EXPECT_TRUE(mote.RunEpoch(0).has_value());
        } else {
          ++rejected;
          EXPECT_FALSE(mote.has_plan());
        }
      }
    }
  }
  // The corpus and mutation mix must actually exercise both paths.
  EXPECT_GT(accepted, 0u);  // some bit flips still decode to valid plans
  EXPECT_GT(rejected, 500u);
}

TEST(SerdeFuzzTest, RejectedBytesKeepThePreviousPlan) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  Mote mote(0, schema, cm, [](size_t, AttrId) { return Value{1}; });
  const CompiledPlan good =
      CompiledPlan::Compile(*PlanNode::Sequential({Predicate(0, 1, 1)}));
  ASSERT_TRUE(mote.ReceivePlanBytes(SerializePlan(good)).ok());

  Rng rng(5);
  const std::vector<uint8_t> bytes = SerializePlan(good);
  size_t rejections = 0;
  for (int round = 0; round < 200; ++round) {
    const std::vector<uint8_t> mutated = Mutate(bytes, rng);
    if (!mote.ReceivePlanBytes(mutated).ok()) {
      ++rejections;
      // The pre-mutation plan stays active and keeps producing verdicts.
      ASSERT_TRUE(mote.has_plan());
      EXPECT_TRUE(PlanIsWellFormed(*mote.installed_plan(), schema));
    }
  }
  EXPECT_GT(rejections, 0u);
  // A mutation may have legitimately replaced the plan with another valid
  // one, so assert executability rather than a specific verdict.
  EXPECT_TRUE(mote.RunEpoch(0).has_value());
}

TEST(SerdeFuzzTest, FlatBytesCarryVersionTag) {
  const std::vector<CompiledPlan> corpus = BuildCorpus(SmallSchema());
  for (const CompiledPlan& plan : corpus) {
    const std::vector<uint8_t> bytes = SerializePlan(plan);
    ASSERT_FALSE(bytes.empty());
    EXPECT_EQ(bytes[0], kPlanWireFormatVersion);
  }
}

TEST(SerdeFuzzTest, UnknownVersionBytesAreRejected) {
  const Schema schema = SmallSchema();
  const std::vector<CompiledPlan> corpus = BuildCorpus(schema);
  for (const CompiledPlan& plan : corpus) {
    std::vector<uint8_t> bytes = SerializePlan(plan);
    // Any leading byte other than 0xCA is a format error.
    bytes[0] = 0x77;
    EXPECT_FALSE(DeserializeCompiledPlan(bytes, schema).ok());
    bytes[0] = 0xCB;
    EXPECT_FALSE(DeserializeCompiledPlan(bytes, schema).ok());
  }
  // The retired recursive tree encoding, whose leading byte was the root's
  // node kind: a sequential leaf (kind 2) holding one predicate
  // cheap0 in [1, 2] (attr 0, lo 1, hi 2, not negated). A valid plan in
  // that format, and no longer decodable.
  const std::vector<uint8_t> legacy = {2, 1, 0, 1, 2, 0};
  const Result<CompiledPlan> decoded = DeserializeCompiledPlan(legacy, schema);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(decoded.status().message(), "unknown plan format version");
}

// ---------------------------------------------------------------------------
// ExecutionResult wire format (exec/result_serde.h) — the reply counterpart
// of the plan bytes above: shard replies also cross a corrupting channel,
// and a merge of a corrupt partial would silently poison the whole query.
// ---------------------------------------------------------------------------

/// A corpus of structurally diverse valid results.
std::vector<ExecutionResult> ResultCorpus() {
  std::vector<ExecutionResult> corpus;
  corpus.emplace_back();  // all defaults: kFalse, zero cost

  ExecutionResult match;
  match.verdict3 = Truth::kTrue;
  match.verdict = true;
  match.cost = 133.0;
  match.acquisitions = 4;
  match.acquired.Insert(0);
  match.acquired.Insert(1);
  match.acquired.Insert(2);
  match.acquired.Insert(3);
  corpus.push_back(match);

  ExecutionResult degraded;
  degraded.verdict3 = Truth::kUnknown;
  degraded.cost = 51.5;
  degraded.acquisitions = 2;
  degraded.retries = 3;
  degraded.acquired.Insert(0);
  degraded.failed.Insert(2);
  corpus.push_back(degraded);

  ExecutionResult aborted;
  aborted.verdict3 = Truth::kUnknown;
  aborted.aborted = true;
  aborted.cost = 1.0;
  aborted.acquisitions = 1;
  aborted.acquired.Insert(1);
  aborted.failed.Insert(3);
  corpus.push_back(aborted);
  return corpus;
}

TEST(SerdeFuzzResultTest, RoundTripIsExact) {
  // The v0xE5 bytes of each ResultCorpus() entry, pinned: version,
  // verdict3, flags, f64 cost, then the acquisitions, retries, acquired and
  // failed varints.
  const std::vector<std::vector<uint8_t>> golden = {
      {0xE5, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
       0x00, 0x00, 0x00, 0x00},
      {0xE5, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xA0, 0x60, 0x40,
       0x04, 0x00, 0x0F, 0x00},
      {0xE5, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xC0, 0x49, 0x40,
       0x02, 0x03, 0x01, 0x04},
      {0xE5, 0x02, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,
       0x01, 0x00, 0x02, 0x08},
  };
  const std::vector<ExecutionResult> corpus = ResultCorpus();
  ASSERT_EQ(corpus.size(), golden.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    const ExecutionResult& r = corpus[i];
    const std::vector<uint8_t> bytes = SerializeExecutionResult(r);
    EXPECT_EQ(bytes, golden[i]) << "corpus entry " << i;
    ASSERT_FALSE(bytes.empty());
    EXPECT_EQ(bytes[0], kResultWireFormatVersion);
    const Result<ExecutionResult> back = DeserializeExecutionResult(bytes);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back.value().verdict, r.verdict);
    EXPECT_EQ(back.value().verdict3, r.verdict3);
    EXPECT_EQ(back.value().aborted, r.aborted);
    EXPECT_EQ(back.value().cost, r.cost);  // bit-exact: f64 on the wire
    EXPECT_EQ(back.value().acquisitions, r.acquisitions);
    EXPECT_EQ(back.value().retries, r.retries);
    EXPECT_EQ(back.value().acquired.bits, r.acquired.bits);
    EXPECT_EQ(back.value().failed.bits, r.failed.bits);
  }
}

TEST(SerdeFuzzResultTest, MutatedResultBytesNeverCrashOrBreakInvariants) {
  const std::vector<ExecutionResult> corpus = ResultCorpus();
  size_t accepted = 0, rejected = 0;
  for (uint64_t seed = 200; seed <= 260; ++seed) {
    Rng rng(seed);
    for (const ExecutionResult& r : corpus) {
      const std::vector<uint8_t> bytes = SerializeExecutionResult(r);
      for (int round = 0; round < 40; ++round) {
        const std::vector<uint8_t> mutated = Mutate(bytes, rng);
        const Result<ExecutionResult> decoded =
            DeserializeExecutionResult(mutated);
        if (!decoded.ok()) {
          ++rejected;
          continue;
        }
        ++accepted;
        // Anything that survives decoding must satisfy every structural
        // invariant a genuine shard reply would: the coordinator merges it
        // without further checks.
        const ExecutionResult& d = decoded.value();
        EXPECT_LE(static_cast<uint8_t>(d.verdict3), 2u);
        EXPECT_EQ(d.verdict, d.verdict3 == Truth::kTrue);
        EXPECT_TRUE(std::isfinite(d.cost));
        EXPECT_GE(d.cost, 0.0);
        EXPECT_GE(d.acquisitions, 0);
        EXPECT_GE(d.retries, 0);
      }
    }
  }
  EXPECT_GT(accepted, 0u);  // some bit flips still decode
  EXPECT_GT(rejected, 500u);
}

TEST(SerdeFuzzResultTest, EmptyAndTinyResultInputsAreRejected) {
  EXPECT_FALSE(DeserializeExecutionResult({}).ok());
  for (int b = 0; b < 256; ++b) {
    EXPECT_FALSE(
        DeserializeExecutionResult({static_cast<uint8_t>(b)}).ok());
  }
}

TEST(SerdeFuzzTest, EmptyAndTinyInputsAreRejected) {
  const Schema schema = SmallSchema();
  EXPECT_FALSE(DeserializeCompiledPlan({}, schema).ok());
  for (int b = 0; b < 256; ++b) {
    const std::vector<uint8_t> one = {static_cast<uint8_t>(b)};
    const Result<CompiledPlan> r = DeserializeCompiledPlan(one, schema);
    if (r.ok()) {
      EXPECT_TRUE(PlanIsWellFormed(*r, schema));
    }
  }
}

}  // namespace
}  // namespace caqp
