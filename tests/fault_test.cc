// Fault-injection tests: FaultSpec parsing, injector determinism, the
// row-keyed fault model (At() purity, rates, attempt independence, stuck and
// spike semantics, one injector shared across threads), the attempt-0
// FaultRealization (bits at word tails and extreme specs, the executor's
// span check), the FaultyAcquisitionSource decorator and its per-row
// attempt counters (SetRow), executor degradation policies, the mote's
// epoch-keyed draws, and the acceptance-style continuous-query simulation
// under 10% transient faults.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "data/garden_gen.h"
#include "exec/batch_executor.h"
#include "fault/fault.h"
#include "net/basestation.h"
#include "net/mote.h"
#include "opt/greedyseq.h"
#include "test_util.h"

namespace caqp {
namespace {

using testing_util::SmallSchema;

// ---------------------------------------------------------------- FaultSpec

TEST(FaultSpecTest, ParseFullProfile) {
  const Result<FaultSpec> spec = FaultSpec::Parse(
      "transient=0.1,stuck=0.02,spike=0.05,spike_mult=3.5,seed=7,"
      "transient@2=0.5");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_DOUBLE_EQ(spec->transient, 0.1);
  EXPECT_DOUBLE_EQ(spec->stuck, 0.02);
  EXPECT_DOUBLE_EQ(spec->spike, 0.05);
  EXPECT_DOUBLE_EQ(spec->spike_multiplier, 3.5);
  EXPECT_EQ(spec->seed, 7u);
  EXPECT_DOUBLE_EQ(spec->TransientFor(2), 0.5);
  EXPECT_DOUBLE_EQ(spec->TransientFor(0), 0.1);
  EXPECT_TRUE(spec->any());
}

TEST(FaultSpecTest, ParseEmptyIsBenign) {
  const Result<FaultSpec> spec = FaultSpec::Parse("");
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(spec->any());
}

TEST(FaultSpecTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(FaultSpec::Parse("transient").ok());
  EXPECT_FALSE(FaultSpec::Parse("transient=abc").ok());
  EXPECT_FALSE(FaultSpec::Parse("transient=1.5").ok());
  EXPECT_FALSE(FaultSpec::Parse("stuck=-0.1").ok());
  EXPECT_FALSE(FaultSpec::Parse("spike_mult=0").ok());
  EXPECT_FALSE(FaultSpec::Parse("seed=xyz").ok());
  EXPECT_FALSE(FaultSpec::Parse("transient@x=0.5").ok());
  EXPECT_FALSE(FaultSpec::Parse("bogus=1").ok());
  // Non-finite rates compare false against both bounds; a NaN rate would
  // inject nothing and raise no error downstream.
  EXPECT_FALSE(FaultSpec::Parse("transient=nan").ok());
  EXPECT_FALSE(FaultSpec::Parse("stuck=nan").ok());
  EXPECT_FALSE(FaultSpec::Parse("spike=nan").ok());
  EXPECT_FALSE(FaultSpec::Parse("transient@2=nan").ok());
  EXPECT_FALSE(FaultSpec::Parse("transient=inf").ok());
  EXPECT_FALSE(FaultSpec::Parse("spike_mult=nan").ok());
  EXPECT_FALSE(FaultSpec::Parse("spike_mult=inf").ok());
  EXPECT_FALSE(FaultSpec::Parse("spike_mult=1e400").ok());
  // Integers must not wrap: strtoull alone maps both to 2^64-1.
  EXPECT_FALSE(FaultSpec::Parse("seed=-1").ok());
  EXPECT_FALSE(FaultSpec::Parse("seed=99999999999999999999999").ok());
  EXPECT_FALSE(FaultSpec::Parse("seed=+5").ok());
  EXPECT_FALSE(FaultSpec::Parse("seed=").ok());
  EXPECT_FALSE(FaultSpec::Parse("transient@-1=0.5").ok());
  EXPECT_FALSE(FaultSpec::Parse("transient@65537=0.5").ok());
  // The boundaries themselves still parse.
  const Result<FaultSpec> max_seed =
      FaultSpec::Parse("seed=18446744073709551615,spike_mult=1e300");
  ASSERT_TRUE(max_seed.ok()) << max_seed.status().ToString();
  EXPECT_EQ(max_seed->seed, UINT64_MAX);
  EXPECT_TRUE(FaultSpec::Parse("transient=0,stuck=1,spike=1").ok());
}

TEST(FaultSpecTest, ParseRejectsDuplicateKeys) {
  EXPECT_FALSE(FaultSpec::Parse("transient=0.1,transient=0.2").ok());
  EXPECT_FALSE(FaultSpec::Parse("seed=1,seed=2").ok());
  EXPECT_FALSE(FaultSpec::Parse("transient@3=0.1,transient@3=0.2").ok());
  // Different spellings of the same attribute still collide: each attribute
  // has one fault stream, so a silent last-write-wins would be a trap.
  EXPECT_FALSE(FaultSpec::Parse("transient@3=0.1,transient@03=0.2").ok());
  // A global and a per-attribute transient setting may coexist.
  EXPECT_TRUE(FaultSpec::Parse("transient=0.1,transient@3=0.2").ok());
  // The error names the offender rather than generically failing.
  const Status dup = FaultSpec::Parse("stuck=0.1,stuck=0.1").status();
  EXPECT_NE(dup.ToString().find("duplicate key 'stuck'"), std::string::npos);
  const Status dup_at =
      FaultSpec::Parse("transient@3=0.1,transient@03=0.2").status();
  EXPECT_NE(dup_at.ToString().find("attribute 03"), std::string::npos);
}

TEST(FaultSpecTest, ParseRejectsEmptyItemsAndTrailingCommas) {
  EXPECT_FALSE(FaultSpec::Parse("transient=0.1,").ok());
  EXPECT_FALSE(FaultSpec::Parse(",transient=0.1").ok());
  EXPECT_FALSE(FaultSpec::Parse("transient=0.1,,stuck=0.1").ok());
  EXPECT_FALSE(FaultSpec::Parse(",").ok());
  const Status trailing = FaultSpec::Parse("seed=3,").status();
  EXPECT_NE(trailing.ToString().find("trailing ','"), std::string::npos);
  const Status empty = FaultSpec::Parse("seed=3,,spike=0.1").status();
  EXPECT_NE(empty.ToString().find("empty item"), std::string::npos);
}

TEST(FaultSpecTest, ToStringRoundtrips) {
  FaultSpec spec;
  spec.transient = 0.25;
  spec.stuck = 0.125;
  spec.seed = 99;
  spec.transient_overrides.emplace_back(1, 0.5);
  const Result<FaultSpec> back = FaultSpec::Parse(spec.ToString());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_DOUBLE_EQ(back->transient, 0.25);
  EXPECT_DOUBLE_EQ(back->stuck, 0.125);
  EXPECT_EQ(back->seed, 99u);
  EXPECT_DOUBLE_EQ(back->TransientFor(1), 0.5);
}

// ------------------------------------------------------------ FaultInjector

TEST(FaultInjectorTest, DeterministicForSameSpec) {
  FaultSpec spec;
  spec.transient = 0.3;
  spec.stuck = 0.1;
  spec.spike = 0.2;
  spec.spike_multiplier = 2.0;
  spec.seed = 42;
  const FaultInjector a(spec), b(spec);
  const Tuple t(5, 1);
  TupleSource base(t);
  FaultyAcquisitionSource sa(base, a), sb(base, b);
  for (int i = 0; i < 500; ++i) {
    const AttrId attr = static_cast<AttrId>(i % 5);
    const AcquiredValue va = sa.Acquire(attr);
    const AcquiredValue vb = sb.Acquire(attr);
    EXPECT_EQ(va.ok, vb.ok);
    EXPECT_EQ(va.permanent, vb.permanent);
    EXPECT_DOUBLE_EQ(va.cost_multiplier, vb.cost_multiplier);
  }
  EXPECT_EQ(sa.injected(), sb.injected());
}

TEST(FaultInjectorTest, PerAttributeStreamsAreOrderIndependent) {
  FaultSpec spec;
  spec.transient = 0.4;
  spec.seed = 7;
  const FaultInjector inj(spec);
  const Tuple t(2, 0);
  TupleSource base(t);
  // Source `a` interleaves attrs 0 and 1; `b` only ever touches attr 1.
  // Attr 1 must see the same sequence either way.
  FaultyAcquisitionSource a(base, inj), b(base, inj);
  std::vector<bool> a_attr1, b_attr1;
  for (int i = 0; i < 200; ++i) {
    a.Acquire(0);
    a_attr1.push_back(a.Acquire(1).ok);
    b_attr1.push_back(b.Acquire(1).ok);
  }
  EXPECT_EQ(a_attr1, b_attr1);
}

TEST(FaultInjectorTest, ResetReplaysTheSameSequence) {
  FaultSpec spec;
  spec.transient = 0.5;
  spec.seed = 13;
  const FaultInjector inj(spec);
  const Tuple t(3, 0);
  TupleSource base(t);
  FaultyAcquisitionSource src(base, inj);
  std::vector<bool> first;
  for (int i = 0; i < 100; ++i) first.push_back(src.Acquire(2).ok);
  // Setting the row again resets its attempt counters, so the source
  // replays exactly the same decisions; so does a fresh source over the
  // same injector.
  src.SetRow(0);
  FaultyAcquisitionSource fresh(base, inj);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(src.Acquire(2).ok, first[i]);
    EXPECT_EQ(fresh.Acquire(2).ok, first[i]);
  }
  EXPECT_EQ(src.injected(), 2 * fresh.injected());
}

TEST(FaultInjectorTest, StuckSensorFailsPermanentlyForever) {
  FaultSpec spec;
  spec.stuck = 1.0;
  const FaultInjector inj(spec);
  const Tuple t(4, 0);
  TupleSource base(t);
  FaultyAcquisitionSource src(base, inj);
  for (int i = 0; i < 20; ++i) {
    const AcquiredValue v = src.Acquire(3);
    EXPECT_FALSE(v.ok);
    EXPECT_TRUE(v.permanent);
  }
  EXPECT_TRUE(inj.At(0, 3, 0).permanent);
  EXPECT_EQ(src.injected(), 20u);
}

TEST(FaultInjectorTest, TransientRateIsApproximatelyHonored) {
  FaultSpec spec;
  spec.transient = 0.1;
  spec.seed = 21;
  const FaultInjector inj(spec);
  const Tuple t(1, 0);
  TupleSource base(t);
  // One long retry chain: attempts 0..n-1 at attribute 0 of row 0.
  FaultyAcquisitionSource src(base, inj);
  int fails = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) fails += src.Acquire(0).ok ? 0 : 1;
  EXPECT_NEAR(static_cast<double>(fails) / n, 0.1, 0.01);
  EXPECT_EQ(src.injected(), static_cast<uint64_t>(fails));
}

TEST(FaultInjectorDeathTest, RejectsInvalidRatesBuiltInCode) {
  // Parse rejects these as text; specs built in code must not slip through.
  FaultSpec nan_rate;
  nan_rate.transient = std::nan("");
  EXPECT_DEATH(FaultInjector{nan_rate}, "");
  FaultSpec big_stuck;
  big_stuck.stuck = 1.5;
  EXPECT_DEATH(FaultInjector{big_stuck}, "");
  FaultSpec bad_override;
  bad_override.transient_overrides.emplace_back(1, -0.1);
  EXPECT_DEATH(FaultInjector{bad_override}, "");
  FaultSpec inf_mult;
  inf_mult.spike_multiplier = std::numeric_limits<double>::infinity();
  EXPECT_DEATH(FaultInjector{inf_mult}, "");
}

// ------------------------------------------------ row-keyed fault model

TEST(FaultRowKeyedTest, AtIsAPureFunctionOfRowAttrAttempt) {
  FaultSpec spec;
  spec.transient = 0.3;
  spec.stuck = 0.2;
  spec.spike = 0.25;
  spec.spike_multiplier = 2.5;
  spec.seed = 99;
  const FaultInjector a(spec);
  const FaultInjector b(spec);
  struct Key {
    RowId row;
    AttrId attr;
    uint32_t attempt;
  };
  std::vector<Key> keys;
  for (RowId row = 0; row < 300; ++row) {
    for (AttrId attr = 0; attr < 6; ++attr) {
      for (uint32_t attempt = 0; attempt < 3; ++attempt) {
        keys.push_back(Key{row, attr, attempt});
      }
    }
  }
  std::vector<FaultInjector::Outcome> forward;
  for (const Key& k : keys) forward.push_back(a.At(k.row, k.attr, k.attempt));
  // Another injector, the opposite call order, with a source drawing
  // through it interleaved: none of it can move an outcome.
  const FaultInjector noisy(spec);
  const Tuple t(6, 0);
  TupleSource base(t);
  FaultyAcquisitionSource traffic(base, noisy);
  for (size_t i = keys.size(); i-- > 0;) {
    traffic.Acquire(static_cast<AttrId>(i % 6));
    const FaultInjector::Outcome o =
        b.At(keys[i].row, keys[i].attr, keys[i].attempt);
    EXPECT_EQ(o.fail, forward[i].fail);
    EXPECT_EQ(o.permanent, forward[i].permanent);
    EXPECT_EQ(o.cost_multiplier, forward[i].cost_multiplier);
    const FaultInjector::Outcome n =
        noisy.At(keys[i].row, keys[i].attr, keys[i].attempt);
    EXPECT_EQ(n.fail, forward[i].fail);
    EXPECT_EQ(n.cost_multiplier, forward[i].cost_multiplier);
  }
  // The clean test, and the realization's bit drawn with it, are exactly
  // "attempt 0 is the default outcome". Rows 0..299 in order: a row's
  // position is its id.
  std::vector<RowId> rows(300);
  std::iota(rows.begin(), rows.end(), RowId{0});
  const FaultRealization realization(a, rows, 6);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (keys[i].attempt != 0) continue;
    const bool clean = !forward[i].fail && forward[i].cost_multiplier == 1.0;
    EXPECT_EQ(a.CleanTestFor(keys[i].attr).Clean(keys[i].row), clean);
    EXPECT_EQ(realization.Clean(keys[i].row, keys[i].attr), clean);
  }
}

TEST(FaultRealizationTest, BitsAreAttemptZeroAtWordTailsAndExtremeSpecs) {
  std::vector<std::vector<RowId>> lists;
  for (const size_t n : {0, 1, 63, 64, 65, 130}) {
    std::vector<RowId> rows(n);
    std::iota(rows.begin(), rows.end(), RowId{1000});
    lists.push_back(std::move(rows));
  }
  std::vector<RowId> shuffled(200);
  std::iota(shuffled.begin(), shuffled.end(), RowId{0});
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937(7u));
  lists.push_back(std::move(shuffled));

  constexpr size_t kAttrs = 5;
  for (const char* text :
       {"transient=0", "stuck=1", "transient=0.3,spike=0.2,spike_mult=2"}) {
    const Result<FaultSpec> spec = FaultSpec::Parse(text);
    ASSERT_TRUE(spec.ok());
    const FaultInjector injector(spec.value());
    for (const std::vector<RowId>& rows : lists) {
      SCOPED_TRACE(std::string(text) + " rows=" + std::to_string(rows.size()));
      const FaultRealization realization(injector, rows, kAttrs);
      EXPECT_EQ(realization.rows().data(), rows.data());
      EXPECT_EQ(realization.rows().size(), rows.size());
      size_t set = 0;
      for (size_t i = 0; i < rows.size(); ++i) {
        for (AttrId attr = 0; attr < kAttrs; ++attr) {
          const FaultInjector::Outcome o = injector.At(rows[i], attr, 0);
          const bool clean =
              !o.fail && !o.permanent && o.cost_multiplier == 1.0;
          EXPECT_EQ(realization.Clean(i, attr), clean)
              << "pos " << i << " attr " << attr;
          set += clean;
        }
      }
      const size_t bits = rows.size() * kAttrs;
      if (spec.value().stuck == 1.0) {
        EXPECT_EQ(set, 0u);
      }
      if (!spec.value().any()) {
        EXPECT_EQ(set, bits);
      }
      // Every 64-bit window, word-aligned or not, reads the same bits and
      // nothing past the end.
      for (size_t pos = 0; pos < rows.size(); ++pos) {
        for (AttrId attr = 0; attr < kAttrs; ++attr) {
          uint64_t want = 0;
          for (size_t j = 0; j < 64 && pos + j < rows.size(); ++j) {
            want |= static_cast<uint64_t>(realization.Clean(pos + j, attr))
                    << j;
          }
          EXPECT_EQ(realization.CleanWord(attr, pos), want)
              << "pos " << pos << " attr " << attr;
        }
      }
    }
  }
}

TEST(FaultRealizationDeathTest, ExecuteRejectsARealizationOverOtherRows) {
  const Schema schema = SmallSchema();
  const Dataset data = testing_util::CorrelatedDataset(schema, 200, 3);
  PerAttributeCostModel cm(schema);
  const CompiledPlan plan = CompiledPlan::Compile(
      Plan(PlanNode::Sequential({Predicate(0, 0, 2), Predicate(1, 0, 2)})));
  std::vector<RowId> rows(data.num_rows());
  std::iota(rows.begin(), rows.end(), RowId{0});
  const std::vector<RowId> same_rows = rows;  // equal ids, another span
  FaultSpec spec;
  spec.transient = 0.1;
  const FaultRealization realization(FaultInjector(spec), rows,
                                     schema.num_attributes());
  ColumnarBatchExecutor exec(plan, data, cm);
  BatchExecOptions opts;
  opts.faults = &realization;
  EXPECT_EQ(exec.Execute(rows, nullptr, opts).tuples, rows.size());
  const std::span<const RowId> all(rows);
  EXPECT_DEATH(exec.Execute(same_rows, nullptr, opts), "");
  EXPECT_DEATH(exec.Execute(all.first(rows.size() - 1), nullptr, opts), "");
  EXPECT_DEATH(exec.Execute(all.subspan(1), nullptr, opts), "");
}

TEST(FaultRowKeyedTest, ConcurrentAtCallsAgree) {
  FaultSpec spec;
  spec.transient = 0.2;
  spec.spike = 0.1;
  spec.spike_multiplier = 3.0;
  spec.seed = 5;
  const FaultInjector shared(spec);
  constexpr RowId kRows = 20000;
  std::vector<uint8_t> outcomes[2];
  size_t source_mismatches[2] = {0, 0};
  auto run = [&](std::vector<uint8_t>* out, size_t* mismatches) {
    for (RowId row = 0; row < kRows; ++row) {
      const FaultInjector::Outcome o = shared.At(row, row % 8, row % 3);
      out->push_back(static_cast<uint8_t>(o.fail) |
                     static_cast<uint8_t>(o.cost_multiplier != 1.0) << 1);
    }
    // Each thread's own source over the shared injector: its k-th attempt
    // at an attribute of a row is At(row, attr, k), whatever the other
    // thread draws meanwhile.
    const Tuple t(8, 1);
    TupleSource base(t);
    FaultyAcquisitionSource source(base, shared);
    for (RowId row = 0; row < kRows; ++row) {
      source.SetRow(row);
      const AttrId attr = static_cast<AttrId>(row % 8);
      for (uint32_t k = 0; k < 3; ++k) {
        const AcquiredValue v = source.Acquire(attr);
        const FaultInjector::Outcome o = shared.At(row, attr, k);
        *mismatches += v.ok == o.fail || v.cost_multiplier != o.cost_multiplier;
      }
    }
  };
  std::thread t0(run, &outcomes[0], &source_mismatches[0]);
  std::thread t1(run, &outcomes[1], &source_mismatches[1]);
  t0.join();
  t1.join();
  EXPECT_EQ(outcomes[0], outcomes[1]);
  EXPECT_EQ(source_mismatches[0], 0u);
  EXPECT_EQ(source_mismatches[1], 0u);
}

TEST(FaultRowKeyedTest, TransientRateWithinFourSigmaPerAttribute) {
  FaultSpec spec;
  spec.transient = 0.05;
  spec.seed = 20050405;
  spec.transient_overrides.emplace_back(3, 0.5);
  const FaultInjector inj(spec);
  constexpr RowId kDraws = 1000000;
  for (AttrId attr = 0; attr < 4; ++attr) {
    const double p = spec.TransientFor(attr);
    size_t fails = 0;
    for (RowId row = 0; row < kDraws; ++row) fails += inj.At(row, attr, 0).fail;
    const double sigma = std::sqrt(p * (1.0 - p) / kDraws);
    EXPECT_NEAR(static_cast<double>(fails) / kDraws, p, 4.0 * sigma)
        << "attr " << attr;
  }
}

TEST(FaultRowKeyedTest, RetryIsIndependentOfThePreviousAttempt) {
  FaultSpec spec;
  spec.transient = 0.3;
  spec.seed = 77;
  const FaultInjector inj(spec);
  // P(fail at k+1 | fail at k) must match the marginal rate; a correlated
  // construction would make retries pointless (or free).
  constexpr RowId kRows = 400000;
  for (uint32_t k = 0; k < 2; ++k) {
    size_t fail_k = 0;
    size_t both = 0;
    for (RowId row = 0; row < kRows; ++row) {
      if (!inj.At(row, 1, k).fail) continue;
      ++fail_k;
      both += inj.At(row, 1, k + 1).fail;
    }
    const double conditional =
        static_cast<double>(both) / static_cast<double>(fail_k);
    const double sigma = std::sqrt(0.3 * 0.7 / static_cast<double>(fail_k));
    EXPECT_NEAR(conditional, 0.3, 4.0 * sigma) << "attempt " << k;
  }
}

TEST(FaultRowKeyedTest, StuckIsPerAttributeAndPermanent) {
  FaultSpec spec;
  spec.stuck = 0.5;
  spec.transient = 0.1;
  spec.seed = 3;
  const FaultInjector inj(spec);
  size_t stuck = 0;
  for (AttrId attr = 0; attr < 64; ++attr) {
    const bool is_stuck = inj.At(0, attr, 0).permanent;
    stuck += is_stuck;
    // Every row and attempt agrees with the per-attribute decision.
    for (RowId row = 0; row < 200; ++row) {
      for (uint32_t attempt = 0; attempt < 4; ++attempt) {
        const FaultInjector::Outcome o = inj.At(row, attr, attempt);
        if (is_stuck) {
          EXPECT_TRUE(o.fail && o.permanent);
        } else {
          EXPECT_FALSE(o.permanent);
        }
      }
    }
  }
  // Roughly half the attributes stick, so the decision is per attribute,
  // not global.
  EXPECT_GT(stuck, 16u);
  EXPECT_LT(stuck, 48u);
}

TEST(FaultRowKeyedTest, SpikesOnlyHitSuccessfulAttempts) {
  FaultSpec spec;
  spec.transient = 0.4;
  spec.spike = 0.5;
  spec.spike_multiplier = 3.0;
  spec.seed = 8;
  const FaultInjector inj(spec);
  size_t spikes = 0;
  size_t successes = 0;
  for (RowId row = 0; row < 50000; ++row) {
    const FaultInjector::Outcome o = inj.At(row, 2, row % 3);
    if (o.fail) {
      EXPECT_EQ(o.cost_multiplier, 1.0);
      continue;
    }
    ++successes;
    if (o.cost_multiplier != 1.0) {
      EXPECT_EQ(o.cost_multiplier, 3.0);
      ++spikes;
    }
  }
  // The spike draw is independent of the failure draw: half the successes.
  EXPECT_NEAR(static_cast<double>(spikes) / static_cast<double>(successes),
              0.5, 0.02);
}

TEST(FaultRowKeyedTest, SetRowRestartsAttemptCounters) {
  FaultSpec spec;
  spec.transient = 0.5;
  spec.seed = 31;
  const FaultInjector inj(spec);
  const Tuple t = {1, 2, 3, 0};
  TupleSource base(t);
  FaultyAcquisitionSource src(base, inj);
  for (RowId row : {RowId{0}, RowId{17}, RowId{123456}}) {
    src.SetRow(row);
    for (uint32_t k = 0; k < 4; ++k) {
      EXPECT_EQ(src.Acquire(1).ok, !inj.At(row, 1, k).fail);
    }
    // Revisiting the row replays it from attempt 0, whatever came between.
    src.SetRow(row + 1);
    src.Acquire(1);
    src.SetRow(row);
    EXPECT_EQ(src.Acquire(1).ok, !inj.At(row, 1, 0).fail);
    EXPECT_EQ(src.Acquire(2).ok, !inj.At(row, 2, 0).fail);
  }
}

// -------------------------------------------------- FaultyAcquisitionSource

TEST(FaultySourceTest, PassesValuesThroughWhenBenign) {
  const Tuple t = {3, 1, 2, 0};
  TupleSource base(t);
  const FaultInjector inj(FaultSpec{});
  FaultyAcquisitionSource src(base, inj);
  for (AttrId a = 0; a < 4; ++a) {
    const AcquiredValue v = src.Acquire(a);
    EXPECT_TRUE(v.ok);
    EXPECT_EQ(v.value, t[a]);
    EXPECT_DOUBLE_EQ(v.cost_multiplier, 1.0);
  }
  EXPECT_EQ(src.injected(), 0u);
}

TEST(FaultySourceTest, InjectsFailuresAndSpikes) {
  const Tuple t = {3, 1, 2, 0};
  TupleSource base(t);
  FaultSpec spec;
  spec.transient = 0.5;
  spec.spike = 0.5;
  spec.spike_multiplier = 4.0;
  spec.seed = 5;
  const FaultInjector inj(spec);
  FaultyAcquisitionSource src(base, inj);
  int fails = 0, spikes = 0;
  for (int i = 0; i < 400; ++i) {
    const AcquiredValue v = src.Acquire(0);
    if (!v.ok) {
      ++fails;
      EXPECT_FALSE(v.permanent);
    } else {
      EXPECT_EQ(v.value, t[0]);
      if (v.cost_multiplier > 1.0) {
        ++spikes;
        EXPECT_DOUBLE_EQ(v.cost_multiplier, 4.0);
      }
    }
  }
  EXPECT_GT(fails, 100);
  EXPECT_GT(spikes, 50);
  EXPECT_EQ(src.injected(), static_cast<uint64_t>(fails));
}

// ---------------------------------------------------- executor degradation

/// Source with a scripted outcome queue per attribute; falls back to the
/// tuple value once a script runs out.
class ScriptedSource : public AcquisitionSource {
 public:
  explicit ScriptedSource(Tuple t) : tuple_(std::move(t)) {}

  void Script(AttrId attr, std::vector<AcquiredValue> outcomes) {
    scripts_[attr] = std::move(outcomes);
  }

  AcquiredValue Acquire(AttrId attr) override {
    ++calls_;
    auto it = scripts_.find(attr);
    if (it != scripts_.end() && !it->second.empty()) {
      const AcquiredValue v = it->second.front();
      it->second.erase(it->second.begin());
      return v;
    }
    return tuple_[attr];
  }

  int calls() const { return calls_; }

 private:
  Tuple tuple_;
  std::map<AttrId, std::vector<AcquiredValue>> scripts_;
  int calls_ = 0;
};

TEST(FaultExecutorTest, MissingAttrPropagatesUnknown) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  const CompiledPlan plan = CompiledPlan::Compile(
      Plan(PlanNode::Sequential({Predicate(0, 0, 2), Predicate(1, 0, 2)})));
  ScriptedSource src({1, 1, 0, 0});
  src.Script(1, {AcquiredValue::Failure()});
  const ExecutionResult res = ExecutePlan(plan, schema, cm, src);
  EXPECT_FALSE(res.defined());
  EXPECT_EQ(res.verdict3, Truth::kUnknown);
  EXPECT_FALSE(res.aborted);
  EXPECT_FALSE(res.verdict);
  EXPECT_TRUE(res.failed.Contains(1));
  EXPECT_TRUE(res.acquired.Contains(0));
  // The failed attempt is still charged (cost of attr 1 is 2).
  EXPECT_DOUBLE_EQ(res.cost, 1.0 + 2.0);
}

TEST(FaultExecutorTest, LaterFalseConjunctStillDefinesVerdict) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  // Attr 1 fails, but attr 2's predicate is false for the tuple: the AND is
  // decidably false regardless of the missing value.
  const CompiledPlan plan = CompiledPlan::Compile(Plan(PlanNode::Sequential(
      {Predicate(0, 0, 2), Predicate(1, 0, 2), Predicate(2, 3, 3)})));
  ScriptedSource src({1, 1, 0, 0});
  src.Script(1, {AcquiredValue::Failure()});
  const ExecutionResult res = ExecutePlan(plan, schema, cm, src);
  EXPECT_TRUE(res.defined());
  EXPECT_EQ(res.verdict3, Truth::kFalse);
  EXPECT_FALSE(res.verdict);
}

TEST(FaultExecutorTest, RetryRecoversTransientFailure) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  const CompiledPlan plan = CompiledPlan::Compile(
      Plan(PlanNode::Sequential({Predicate(1, 1, 1)})));
  ScriptedSource src({0, 1, 0, 0});
  src.Script(1, {AcquiredValue::Failure(), AcquiredValue::Failure()});
  const ExecutionResult res = ExecutePlan(
      plan, schema, cm, src, nullptr, DegradationPolicy::Retry(3));
  EXPECT_TRUE(res.defined());
  EXPECT_TRUE(res.verdict);
  EXPECT_EQ(res.retries, 2);
  EXPECT_EQ(src.calls(), 3);
  // All three attempts charged at attr 1's cost of 2.
  EXPECT_DOUBLE_EQ(res.cost, 3 * 2.0);
}

TEST(FaultExecutorTest, RetryCostMultiplierScalesRetriesOnly) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  const CompiledPlan plan = CompiledPlan::Compile(
      Plan(PlanNode::Sequential({Predicate(1, 1, 1)})));
  ScriptedSource src({0, 1, 0, 0});
  src.Script(1, {AcquiredValue::Failure()});
  const ExecutionResult res = ExecutePlan(
      plan, schema, cm, src, nullptr, DegradationPolicy::Retry(3, 0.5));
  EXPECT_TRUE(res.defined());
  EXPECT_EQ(res.retries, 1);
  // First attempt full price, retry at half price: 2 + 1.
  EXPECT_DOUBLE_EQ(res.cost, 2.0 + 1.0);
}

TEST(FaultExecutorTest, RetryExhaustionDegradesToUnknown) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  const CompiledPlan plan = CompiledPlan::Compile(
      Plan(PlanNode::Sequential({Predicate(1, 1, 1)})));
  ScriptedSource src({0, 1, 0, 0});
  src.Script(1, {AcquiredValue::Failure(), AcquiredValue::Failure(),
                 AcquiredValue::Failure()});
  const ExecutionResult res = ExecutePlan(
      plan, schema, cm, src, nullptr, DegradationPolicy::Retry(3));
  EXPECT_FALSE(res.defined());
  EXPECT_FALSE(res.aborted);
  EXPECT_EQ(res.retries, 2);
  EXPECT_TRUE(res.failed.Contains(1));
}

TEST(FaultExecutorTest, StuckSensorIsNotRetried) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  const CompiledPlan plan = CompiledPlan::Compile(
      Plan(PlanNode::Sequential({Predicate(1, 1, 1)})));
  ScriptedSource src({0, 1, 0, 0});
  src.Script(1, {AcquiredValue::Failure(/*permanent_failure=*/true)});
  const ExecutionResult res = ExecutePlan(
      plan, schema, cm, src, nullptr, DegradationPolicy::Retry(5));
  EXPECT_FALSE(res.defined());
  EXPECT_EQ(src.calls(), 1);  // no retry against a stuck sensor
  EXPECT_EQ(res.retries, 0);
}

TEST(FaultExecutorTest, AbortPolicyStopsAtFirstFailure) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  const CompiledPlan plan = CompiledPlan::Compile(Plan(PlanNode::Sequential(
      {Predicate(1, 0, 5), Predicate(0, 0, 3), Predicate(2, 3, 3)})));
  ScriptedSource src({1, 1, 0, 0});
  src.Script(1, {AcquiredValue::Failure()});
  const ExecutionResult res = ExecutePlan(
      plan, schema, cm, src, nullptr, DegradationPolicy::Abort());
  EXPECT_TRUE(res.aborted);
  EXPECT_FALSE(res.defined());
  EXPECT_EQ(res.verdict3, Truth::kUnknown);
  // Attrs 0 and 2 never touched after the abort.
  EXPECT_EQ(src.calls(), 1);
}

TEST(FaultExecutorTest, SplitAttrFailureYieldsUnknown) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  const CompiledPlan plan = CompiledPlan::Compile(
      Plan(PlanNode::Split(0, 2, PlanNode::Verdict(false),
                           PlanNode::Verdict(true))));
  ScriptedSource src({1, 1, 0, 0});
  src.Script(0, {AcquiredValue::Failure()});
  const ExecutionResult res = ExecutePlan(plan, schema, cm, src);
  EXPECT_FALSE(res.defined());
  EXPECT_EQ(res.verdict3, Truth::kUnknown);
}

TEST(FaultExecutorTest, FailedAttrIsChargedOnlyOnce) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  // Attr 1 appears twice; after the first (failed) acquisition the executor
  // must remember the failure instead of paying again.
  const CompiledPlan plan = CompiledPlan::Compile(Plan(PlanNode::Sequential(
      {Predicate(1, 0, 5), Predicate(0, 0, 3), Predicate(1, 0, 5)})));
  ScriptedSource src({1, 1, 0, 0});
  src.Script(1, {AcquiredValue::Failure(), AcquiredValue::Failure()});
  const ExecutionResult res = ExecutePlan(plan, schema, cm, src);
  EXPECT_FALSE(res.defined());
  // One charge for failed attr 1 (cost 2) + one for attr 0 (cost 1).
  EXPECT_DOUBLE_EQ(res.cost, 2.0 + 1.0);
  EXPECT_EQ(src.calls(), 2);  // attr1 once, attr0 once
}

TEST(FaultExecutorTest, SpikeMultiplierScalesMarginalCost) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  const CompiledPlan plan = CompiledPlan::Compile(
      Plan(PlanNode::Sequential({Predicate(1, 1, 1)})));
  ScriptedSource src({0, 1, 0, 0});
  AcquiredValue spiked(Value{1});
  spiked.cost_multiplier = 3.0;
  src.Script(1, {spiked});
  const ExecutionResult res = ExecutePlan(plan, schema, cm, src);
  EXPECT_TRUE(res.defined());
  EXPECT_DOUBLE_EQ(res.cost, 3.0 * 2.0);
}

// -------------------------------------------------- acceptance simulation

struct SimOutcome {
  std::vector<uint8_t> defined;  // 1 if the verdict was defined
  std::vector<uint8_t> verdict;
  double total_cost = 0.0;
  size_t ground_truth_mismatches = 0;
};

/// Continuous-query simulation over the garden workload with per-mote fault
/// injection, comparing every defined verdict against ground truth.
void RunGardenSim(uint64_t fault_seed, SimOutcome* out) {
  GardenDataOptions gopt;
  gopt.num_motes = 3;
  gopt.epochs = 1500;
  gopt.seed = 777;
  const Dataset data = GenerateGardenData(gopt);
  const Schema& schema = data.schema();
  const GardenAttrs attrs = ResolveGardenAttrs(schema);

  PerAttributeCostModel cm(schema);
  Radio radio(Radio::Options{.cost_per_byte = 0.0});
  Basestation base(schema, cm, radio);
  base.CollectHistory(data);

  // "Hot and humid anywhere" query: expensive attrs with cheap correlates.
  const Query q = Query::Conjunction(
      {Predicate(attrs.temperature[0], 8, 11), Predicate(attrs.humidity[1], 6, 11)});
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  GreedySeqSolver solver;
  const CompiledPlan plan =
      base.TrainPlan(q, splits, solver, /*max_splits=*/3);

  FaultSpec spec;
  spec.transient = 0.1;
  spec.seed = fault_seed;

  const size_t kMotes = 4;
  const size_t kEpochs = 500;
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  std::vector<std::unique_ptr<Mote>> motes;
  for (size_t m = 0; m < kMotes; ++m) {
    FaultSpec mote_spec = spec;
    mote_spec.seed = spec.seed + m;
    injectors.push_back(std::make_unique<FaultInjector>(mote_spec));
    motes.push_back(std::make_unique<Mote>(
        static_cast<int>(m), schema, cm,
        [&data, m, kMotes](size_t epoch, AttrId attr) {
          return data.at(
              static_cast<RowId>((epoch * kMotes + m) % data.num_rows()), attr);
        }));
    motes.back()->InstallPlan(plan);
    motes.back()->SetFaultInjector(injectors.back().get());
    motes.back()->SetDegradationPolicy(DegradationPolicy::Retry(3));
  }

  for (size_t e = 0; e < kEpochs; ++e) {
    for (size_t m = 0; m < kMotes; ++m) {
      const std::optional<ExecutionResult> res = motes[m]->RunEpoch(e);
      ASSERT_TRUE(res.has_value()) << "unlimited budget never browns out";
      out->defined.push_back(res->defined() ? 1 : 0);
      out->verdict.push_back(res->verdict ? 1 : 0);
      out->total_cost += res->cost;
      if (res->defined()) {
        const RowId row =
            static_cast<RowId>((e * kMotes + m) % data.num_rows());
        if ((res->verdict3 == Truth::kTrue) != q.Matches(data.GetTuple(row))) {
          ++out->ground_truth_mismatches;
        }
      }
    }
  }
}

TEST(FaultSimTest, GardenContinuousQueryMeetsDegradationBar) {
  SimOutcome run;
  RunGardenSim(2026, &run);
  const size_t total = run.defined.size();
  ASSERT_GT(total, 0u);
  size_t defined = 0;
  for (uint8_t d : run.defined) defined += d;
  // 10% transient failures + Retry(3): <= 0.1% residual per acquisition,
  // so >= 99% of verdicts must stay defined.
  EXPECT_GE(static_cast<double>(defined) / static_cast<double>(total), 0.99);
  // Every defined verdict agrees with ground-truth query evaluation.
  EXPECT_EQ(run.ground_truth_mismatches, 0u);

  // Same seed => bit-identical rerun.
  SimOutcome rerun;
  RunGardenSim(2026, &rerun);
  EXPECT_EQ(run.defined, rerun.defined);
  EXPECT_EQ(run.verdict, rerun.verdict);
  EXPECT_DOUBLE_EQ(run.total_cost, rerun.total_cost);

  // Different fault seed => (almost surely) different fault pattern.
  SimOutcome other;
  RunGardenSim(9999, &other);
  EXPECT_NE(run.defined, other.defined);
}

TEST(FaultSimTest, MoteDrawsAreKeyedByEpoch) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  // Attribute 0 decides whether the leaf goes on to the other three, so the
  // attributes tried vary by epoch.
  const CompiledPlan plan = CompiledPlan::Compile(*PlanNode::Sequential(
      {Predicate(0, 0, 1), Predicate(1, 0, 5), Predicate(2, 0, 3),
       Predicate(3, 0, 4)}));
  FaultSpec spec;
  spec.transient = 0.3;
  spec.seed = 4;
  const FaultInjector injector(spec);
  const Mote::Sampler sampler = [&schema](size_t epoch, AttrId attr) {
    return static_cast<Value>((epoch + attr) % schema.domain_size(attr));
  };
  // Two motes over one injector, one running the epochs backwards: each
  // epoch's faults are the injector's draws for that epoch, whatever ran
  // before it.
  Mote forward(0, schema, cm, sampler);
  Mote backward(1, schema, cm, sampler);
  for (Mote* m : {&forward, &backward}) {
    m->InstallPlan(plan);
    m->SetFaultInjector(&injector);
    m->SetDegradationPolicy(DegradationPolicy::UnknownVerdict());
  }
  constexpr size_t kEpochs = 200;
  std::vector<ExecutionResult> backward_runs(kEpochs);
  for (size_t e = kEpochs; e-- > 0;) {
    backward_runs[e] = backward.RunEpoch(e).value();
  }
  size_t failures = 0;
  for (size_t e = 0; e < kEpochs; ++e) {
    const ExecutionResult res = forward.RunEpoch(e).value();
    const AttrSet tried = res.acquired.Union(res.failed);
    EXPECT_TRUE(tried.Contains(0));
    for (AttrId a = 0; a < schema.num_attributes(); ++a) {
      if (!tried.Contains(a)) continue;
      EXPECT_EQ(res.failed.Contains(a),
                injector.At(static_cast<RowId>(e), a, 0).fail)
          << "epoch " << e << " attr " << a;
    }
    EXPECT_EQ(res.failed.bits, backward_runs[e].failed.bits) << "epoch " << e;
    EXPECT_EQ(res.acquired.bits, backward_runs[e].acquired.bits);
    failures += res.failed.Count();
  }
  EXPECT_GT(failures, 0u);
}

}  // namespace
}  // namespace caqp
