// Deterministic byte-mutation fuzzing of the plan wire format: plans arrive
// over a lossy, corrupting radio, so DeserializePlan must reject or safely
// accept ANY mutation of a valid encoding — never crash, never install a
// malformed plan. Run under ASan in scripts/check.sh to catch OOB reads the
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
std::vector<Plan> BuildCorpus(const Schema& schema) {
  std::vector<Plan> corpus;
  corpus.emplace_back(PlanNode::Verdict(true));
  corpus.emplace_back(PlanNode::Sequential(
      {Predicate(0, 1, 2), Predicate(2, 0, 1), Predicate(3, 2, 4, true)}));
  corpus.emplace_back(PlanNode::Split(
      0, 2,
      PlanNode::Sequential({Predicate(2, 1, 3)}),
      PlanNode::Split(1, 3, PlanNode::Verdict(false),
                      PlanNode::Sequential({Predicate(3, 0, 2)}))));
  const Query q =
      Query::Conjunction({Predicate(1, 1, 4), Predicate(2, 0, 2)});
  corpus.emplace_back(PlanNode::Generic(q, {1, 2}));
  (void)schema;
  return corpus;
}

TEST(SerdeFuzzTest, MutatedPlanBytesNeverCrashOrInstallMalformedPlans) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  const std::vector<Plan> corpus = BuildCorpus(schema);

  size_t accepted = 0, rejected = 0;
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    Rng rng(seed);
    for (const Plan& plan : corpus) {
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
  const Plan good(PlanNode::Sequential({Predicate(0, 1, 1)}));
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
  const std::vector<Plan> corpus = BuildCorpus(SmallSchema());
  for (const Plan& plan : corpus) {
    const std::vector<uint8_t> bytes = SerializePlan(plan);
    ASSERT_FALSE(bytes.empty());
    EXPECT_EQ(bytes[0], kPlanWireFormatVersion);
  }
}

TEST(SerdeFuzzTest, UnknownVersionBytesAreRejected) {
  const Schema schema = SmallSchema();
  const std::vector<Plan> corpus = BuildCorpus(schema);
  for (const Plan& plan : corpus) {
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
  for (const ExecutionResult& r : ResultCorpus()) {
    const std::vector<uint8_t> bytes = SerializeExecutionResult(r);
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

// ---------------------------------------------------------------------------
// Trace-context tail (PR 10): flags bit 1 appends trace_id / root_span_id /
// parent_span_id varints. Legacy v0xE5 bytes never set the bit and must
// keep decoding byte for byte; a corrupt tail must reject, not crash.
// ---------------------------------------------------------------------------

TEST(SerdeFuzzResultTest, TraceContextRoundTrips) {
  const ResultTraceContext contexts[] = {
      {1, 1, 0},
      {42, (7u << 22) + 1, 3},
      {~0ull >> 1, ~0u, ~0u},
  };
  for (const ExecutionResult& r : ResultCorpus()) {
    for (const ResultTraceContext& ctx : contexts) {
      const std::vector<uint8_t> bytes = SerializeExecutionResult(r, ctx);
      EXPECT_EQ(bytes[2] & 0x2, 0x2) << "flags bit 1 must be set";
      ResultTraceContext back;
      const Result<ExecutionResult> decoded =
          DeserializeExecutionResult(bytes, &back);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_EQ(back, ctx);
      EXPECT_EQ(decoded.value().verdict3, r.verdict3);
      // The overload that discards the tail accepts the same bytes.
      EXPECT_TRUE(DeserializeExecutionResult(bytes).ok());
    }
  }
}

TEST(SerdeFuzzResultTest, AbsentContextReproducesLegacyBytes) {
  for (const ExecutionResult& r : ResultCorpus()) {
    const std::vector<uint8_t> legacy = SerializeExecutionResult(r);
    const std::vector<uint8_t> explicit_absent =
        SerializeExecutionResult(r, ResultTraceContext{});
    EXPECT_EQ(legacy, explicit_absent);
    EXPECT_EQ(legacy[2] & 0x2, 0);
    ResultTraceContext trace;
    trace.trace_id = 99;  // must be overwritten to "absent"
    ASSERT_TRUE(DeserializeExecutionResult(legacy, &trace).ok());
    EXPECT_FALSE(trace.present());
  }
}

TEST(SerdeFuzzResultTest, TraceTailWithZeroTraceIdIsRejected) {
  // Corpus entry 0 has all-zero counters, so every varint ahead of the
  // tail is one byte and the tail occupies exactly the last three bytes.
  const ResultTraceContext ctx{1, 5, 7};
  std::vector<uint8_t> bytes =
      SerializeExecutionResult(ExecutionResult{}, ctx);
  ASSERT_GE(bytes.size(), 3u);
  ASSERT_EQ(bytes[bytes.size() - 3], 1u);  // trace_id varint
  bytes[bytes.size() - 3] = 0;
  EXPECT_FALSE(DeserializeExecutionResult(bytes).ok());
}

TEST(SerdeFuzzResultTest, TruncatedTraceTailsAreRejected) {
  const ResultTraceContext ctx{42, (7u << 22) + 1, 3};
  for (const ExecutionResult& r : ResultCorpus()) {
    const std::vector<uint8_t> bytes = SerializeExecutionResult(r, ctx);
    const std::vector<uint8_t> plain = SerializeExecutionResult(r);
    // Chop the tail off byte by byte: every prefix that still has the
    // flag bit set but an incomplete tail must reject.
    for (size_t len = plain.size(); len < bytes.size(); ++len) {
      std::vector<uint8_t> cut(bytes.begin(),
                               bytes.begin() + static_cast<long>(len));
      EXPECT_FALSE(DeserializeExecutionResult(cut).ok()) << "len " << len;
    }
  }
}

TEST(SerdeFuzzResultTest, MutatedTraceBytesNeverCrashOrBreakInvariants) {
  const ResultTraceContext ctx{77, (3u << 22) + 9, (1u << 22) + 2};
  size_t accepted = 0, rejected = 0;
  for (uint64_t seed = 300; seed <= 360; ++seed) {
    Rng rng(seed);
    for (const ExecutionResult& r : ResultCorpus()) {
      const std::vector<uint8_t> bytes = SerializeExecutionResult(r, ctx);
      for (int round = 0; round < 40; ++round) {
        const std::vector<uint8_t> mutated = Mutate(bytes, rng);
        ResultTraceContext trace;
        const Result<ExecutionResult> decoded =
            DeserializeExecutionResult(mutated, &trace);
        if (!decoded.ok()) {
          ++rejected;
          continue;
        }
        ++accepted;
        const ExecutionResult& d = decoded.value();
        EXPECT_LE(static_cast<uint8_t>(d.verdict3), 2u);
        EXPECT_EQ(d.verdict, d.verdict3 == Truth::kTrue);
        EXPECT_TRUE(std::isfinite(d.cost));
        EXPECT_GE(d.cost, 0.0);
        // A surviving trace context is either absent or well-formed; the
        // decoder never hands back a present() context with trace_id 0.
        if (trace.present()) {
          EXPECT_NE(trace.trace_id, 0u);
        }
      }
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 500u);
}

TEST(SerdeFuzzTest, EmptyAndTinyInputsAreRejected) {
  const Schema schema = SmallSchema();
  EXPECT_FALSE(DeserializePlan({}, schema).ok());
  for (int b = 0; b < 256; ++b) {
    const std::vector<uint8_t> one = {static_cast<uint8_t>(b)};
    const Result<Plan> r = DeserializePlan(one, schema);
    if (r.ok()) {
      EXPECT_TRUE(PlanIsWellFormed(*r, schema));
    }
  }
}

}  // namespace
}  // namespace caqp
