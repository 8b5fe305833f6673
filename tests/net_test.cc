// Sensor-network simulator tests: radio accounting and fault injection,
// mote plan installation and energy budgets, basestation train/disseminate/
// run loop.

#include <gtest/gtest.h>

#include "fault/fault.h"
#include "net/basestation.h"
#include "net/mote.h"
#include "net/radio.h"
#include "opt/optseq.h"
#include "test_util.h"

namespace caqp {
namespace {

using testing_util::CorrelatedDataset;
using testing_util::SmallSchema;

TEST(EnergyMeterTest, UnlimitedBudget) {
  EnergyMeter m;
  EXPECT_TRUE(m.Consume(1e12));
  EXPECT_FALSE(m.exhausted());
  EXPECT_DOUBLE_EQ(m.remaining(), -1.0);
}

TEST(EnergyMeterTest, BudgetEnforced) {
  EnergyMeter m(10.0);
  EXPECT_TRUE(m.Consume(6.0));
  EXPECT_FALSE(m.Consume(5.0));  // would exceed
  EXPECT_DOUBLE_EQ(m.spent(), 6.0);
  EXPECT_TRUE(m.Consume(4.0));
  EXPECT_TRUE(m.exhausted());
}

TEST(RadioTest, ChargesBothEndpoints) {
  Radio radio(Radio::Options{.cost_per_byte = 0.5});
  EnergyMeter a, b;
  const std::vector<uint8_t> msg(10, 0);
  const Radio::Delivery d = radio.Transmit(msg, a, b);
  EXPECT_TRUE(d.delivered);
  EXPECT_DOUBLE_EQ(a.spent(), 5.0);
  EXPECT_DOUBLE_EQ(b.spent(), 5.0);
  EXPECT_EQ(radio.bytes_sent(), 10u);
}

TEST(RadioTest, SenderBudgetBlocksTransmission) {
  Radio radio(Radio::Options{.cost_per_byte = 1.0});
  EnergyMeter a(3.0), b;
  const std::vector<uint8_t> msg(10, 0);
  const Radio::Delivery d = radio.Transmit(msg, a, b);
  EXPECT_FALSE(d.delivered);
  EXPECT_EQ(radio.messages_dropped(), 1u);
  EXPECT_DOUBLE_EQ(a.spent(), 0.0);  // nothing consumed on refusal
}

TEST(RadioTest, HalfAffordableChargesOnlySender) {
  // Charging contract: sender pays iff a transmission is attempted;
  // receiver pays iff the message is delivered. A receiver that cannot
  // afford reception fails the delivery but is never charged, and the
  // sender's energy is still gone (the radio was keyed).
  Radio radio(Radio::Options{.cost_per_byte = 1.0});
  EnergyMeter sender, receiver(3.0);
  const std::vector<uint8_t> msg(10, 0);
  const Radio::Delivery d = radio.Transmit(msg, sender, receiver);
  EXPECT_FALSE(d.delivered);
  EXPECT_DOUBLE_EQ(sender.spent(), 10.0);
  EXPECT_DOUBLE_EQ(receiver.spent(), 0.0);
  EXPECT_EQ(radio.messages_dropped(), 1u);
}

TEST(RadioTest, ReceiverNotChargedOnChannelLoss) {
  Radio radio(Radio::Options{.cost_per_byte = 1.0, .drop_probability = 1.0});
  EnergyMeter sender, receiver;
  const std::vector<uint8_t> msg(5, 0);
  const Radio::Delivery d = radio.Transmit(msg, sender, receiver);
  EXPECT_FALSE(d.delivered);
  EXPECT_DOUBLE_EQ(sender.spent(), 5.0);  // attempt was made
  EXPECT_DOUBLE_EQ(receiver.spent(), 0.0);  // nothing arrived
}

TEST(RadioTest, DropsAtConfiguredRate) {
  Radio radio(Radio::Options{
      .cost_per_byte = 0.0, .drop_probability = 0.5, .seed = 9});
  EnergyMeter a, b;
  const std::vector<uint8_t> msg(4, 0);
  int delivered = 0;
  for (int i = 0; i < 2000; ++i) {
    delivered += radio.Transmit(msg, a, b).delivered ? 1 : 0;
  }
  EXPECT_NEAR(delivered / 2000.0, 0.5, 0.05);
}

TEST(RadioTest, BurstLossClustersDrops) {
  // Gilbert-Elliott: ~half the time in a perfectly lossy bad state =>
  // overall delivery well below the iid drop rate of 0 yet well above 0.
  Radio::Options opt;
  opt.cost_per_byte = 0.0;
  opt.drop_probability = 0.0;
  opt.burst_drop_probability = 1.0;
  opt.good_to_bad = 0.2;
  opt.bad_to_good = 0.2;
  opt.seed = 17;
  Radio radio(opt);
  EnergyMeter a, b;
  const std::vector<uint8_t> msg(4, 0);
  int delivered = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    delivered += radio.Transmit(msg, a, b).delivered ? 1 : 0;
  }
  // Stationary P(bad) = 0.5 for symmetric transitions.
  EXPECT_NEAR(delivered / static_cast<double>(n), 0.5, 0.08);
  EXPECT_EQ(radio.burst_drops(), radio.messages_dropped());
  EXPECT_GT(radio.burst_drops(), 0u);
}

TEST(RadioTest, BurstDisabledPreservesSeededStream) {
  // good_to_bad = 0 must not consume RNG draws: the delivery pattern has to
  // be bit-identical to a radio without burst fields.
  Radio::Options plain;
  plain.cost_per_byte = 0.0;
  plain.drop_probability = 0.3;
  plain.seed = 23;
  Radio::Options with_burst = plain;
  with_burst.burst_drop_probability = 0.9;  // ignored: chain never leaves good
  Radio r1(plain), r2(with_burst);
  EnergyMeter a, b;
  const std::vector<uint8_t> msg(4, 0);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(r1.Transmit(msg, a, b).delivered,
              r2.Transmit(msg, a, b).delivered);
  }
  EXPECT_EQ(r2.burst_drops(), 0u);
}

TEST(RadioTest, CorruptionFlipsBits) {
  Radio radio(Radio::Options{
      .cost_per_byte = 0.0, .corruption_probability = 1.0, .seed = 9});
  EnergyMeter a, b;
  const std::vector<uint8_t> msg(16, 0xAA);
  const Radio::Delivery d = radio.Transmit(msg, a, b);
  ASSERT_TRUE(d.delivered);
  bool changed = false;
  for (size_t i = 0; i < msg.size(); ++i) changed |= (d.payload[i] != 0xAA);
  EXPECT_TRUE(changed);
}

TEST(MoteTest, RejectsCorruptPlanKeepsOld) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  Mote mote(1, schema, cm, [](size_t, AttrId) { return Value{0}; });
  const CompiledPlan good = CompiledPlan::Compile(*PlanNode::Verdict(true));
  ASSERT_TRUE(mote.ReceivePlanBytes(SerializePlan(good)).ok());
  EXPECT_TRUE(mote.has_plan());
  // Corrupt bytes: rejected, old plan still active.
  std::vector<uint8_t> junk = {0xFF, 0x00, 0x13};
  EXPECT_FALSE(mote.ReceivePlanBytes(junk).ok());
  const auto res = mote.RunEpoch(0);
  ASSERT_TRUE(res.has_value());
  EXPECT_TRUE(res->verdict);
}

TEST(MoteTest, NoPlanNoExecution) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  Mote mote(1, schema, cm, [](size_t, AttrId) { return Value{0}; });
  EXPECT_FALSE(mote.RunEpoch(0).has_value());
}

TEST(MoteTest, EnergyBudgetStopsExecution) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  // Each epoch costs cost(2) = 50; budget allows exactly two epochs.
  Mote mote(1, schema, cm, [](size_t, AttrId) { return Value{1}; },
            /*energy_budget=*/100.0);
  mote.InstallPlan(
      CompiledPlan::Compile(*PlanNode::Sequential({Predicate(2, 0, 0)})));
  EXPECT_TRUE(mote.RunEpoch(0).has_value());
  EXPECT_TRUE(mote.RunEpoch(1).has_value());
  EXPECT_FALSE(mote.RunEpoch(2).has_value());  // browned out
}

TEST(MoteTest, SamplerDrivesVerdicts) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  // Readings alternate by epoch parity.
  Mote mote(1, schema, cm, [](size_t epoch, AttrId) {
    return static_cast<Value>(epoch % 2);
  });
  mote.InstallPlan(
      CompiledPlan::Compile(*PlanNode::Sequential({Predicate(0, 1, 1)})));
  EXPECT_FALSE(mote.RunEpoch(0)->verdict);
  EXPECT_TRUE(mote.RunEpoch(1)->verdict);
}

TEST(BasestationTest, EndToEndTrainDisseminateRun) {
  const Schema schema = SmallSchema();
  const Dataset history = CorrelatedDataset(schema, 1500, 61, 0.2);
  PerAttributeCostModel cm(schema);
  Radio radio(Radio::Options{.cost_per_byte = 0.01});
  Basestation base(schema, cm, radio);
  base.CollectHistory(history);
  EXPECT_EQ(base.history().num_rows(), 1500u);

  const Query q =
      Query::Conjunction({Predicate(2, 3, 3), Predicate(3, 3, 4)});
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  OptSeqSolver optseq;
  const CompiledPlan plan = base.TrainPlan(q, splits, optseq, /*max_splits=*/4);

  // Motes replay held-out rows.
  const Dataset test = CorrelatedDataset(schema, 64, 62, 0.2);
  std::vector<std::unique_ptr<Mote>> motes;
  std::vector<Mote*> mote_ptrs;
  for (int m = 0; m < 4; ++m) {
    motes.push_back(std::make_unique<Mote>(
        m, schema, cm, [&test, m](size_t epoch, AttrId attr) {
          return test.at(static_cast<RowId>((epoch * 4 + m) % test.num_rows()),
                         attr);
        }));
    mote_ptrs.push_back(motes.back().get());
  }
  EXPECT_EQ(base.Disseminate(plan, mote_ptrs), 4u);

  const auto reports = base.RunContinuousQuery(mote_ptrs, /*epochs=*/10);
  ASSERT_EQ(reports.size(), 10u);
  for (const auto& rep : reports) {
    EXPECT_EQ(rep.motes_reporting, 4u);
    EXPECT_GT(rep.acquisition_cost, 0.0);
  }
  // Motes spent energy on plan reception + acquisition.
  for (const auto& mote : motes) EXPECT_GT(mote->energy().spent(), 0.0);
  EXPECT_GT(radio.bytes_sent(), 0u);
}

TEST(BasestationTest, CorruptRadioRejectsBrokenPlans) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  // Heavy corruption: most deliveries arrive mangled; motes must either
  // reject them (deserializer error) or install a still-well-formed plan.
  Radio radio(Radio::Options{
      .cost_per_byte = 0.0, .corruption_probability = 0.08, .seed = 21});
  Basestation base(schema, cm, radio);
  Dataset history = CorrelatedDataset(schema, 200, 64);
  base.CollectHistory(history);
  const Query q = Query::Conjunction({Predicate(2, 1, 2), Predicate(3, 0, 2)});
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  OptSeqSolver optseq;
  const CompiledPlan plan = base.TrainPlan(q, splits, optseq, 3);

  std::vector<std::unique_ptr<Mote>> motes;
  std::vector<Mote*> ptrs;
  for (int m = 0; m < 60; ++m) {
    motes.push_back(std::make_unique<Mote>(
        m, schema, cm, [](size_t, AttrId) { return Value{1}; }));
    ptrs.push_back(motes.back().get());
  }
  const size_t installed = base.Disseminate(plan, ptrs);
  EXPECT_LT(installed, 60u);  // corruption rejected some installs
  // Every mote that did install runs without crashing.
  for (auto& mote : motes) {
    if (mote->has_plan()) {
      EXPECT_TRUE(mote->RunEpoch(0).has_value());
    }
  }
}

TEST(BasestationTest, LimitQueryStopsEarly) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  Radio radio(Radio::Options{.cost_per_byte = 0.0});
  Basestation base(schema, cm, radio);

  // Every mote matches every epoch: the limit should be hit in epoch 0
  // after exactly `limit` polls.
  std::vector<std::unique_ptr<Mote>> motes;
  std::vector<Mote*> mote_ptrs;
  for (int m = 0; m < 8; ++m) {
    motes.push_back(std::make_unique<Mote>(
        m, schema, cm, [](size_t, AttrId) { return Value{1}; }));
    motes.back()->InstallPlan(
        CompiledPlan::Compile(*PlanNode::Sequential({Predicate(0, 1, 1)})));
    mote_ptrs.push_back(motes.back().get());
  }
  const auto res = base.RunLimitQuery(mote_ptrs, /*limit=*/3,
                                      /*max_epochs=*/10);
  EXPECT_EQ(res.matches, 3u);
  EXPECT_EQ(res.epochs_run, 1u);
  // Exactly 3 polls paid acquisition (cheap attr 0 costs 1 each).
  EXPECT_DOUBLE_EQ(res.acquisition_cost, 3.0);
}

TEST(BasestationTest, LimitQueryExhaustsEpochsWhenScarce) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  Radio radio(Radio::Options{.cost_per_byte = 0.0});
  Basestation base(schema, cm, radio);
  // Never matches.
  Mote mote(0, schema, cm, [](size_t, AttrId) { return Value{0}; });
  mote.InstallPlan(
      CompiledPlan::Compile(*PlanNode::Sequential({Predicate(0, 1, 1)})));
  std::vector<Mote*> ptrs = {&mote};
  const auto res = base.RunLimitQuery(ptrs, 1, /*max_epochs=*/5);
  EXPECT_EQ(res.matches, 0u);
  EXPECT_EQ(res.epochs_run, 5u);
}

TEST(BasestationTest, LossyRadioInstallsFewerPlans) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  Radio radio(Radio::Options{
      .cost_per_byte = 0.0, .drop_probability = 0.6, .seed = 11});
  Basestation base(schema, cm, radio);
  Dataset history = CorrelatedDataset(schema, 200, 63);
  base.CollectHistory(history);
  const Query q = Query::Conjunction({Predicate(2, 1, 2)});
  const SplitPointSet splits = SplitPointSet::AllPoints(schema);
  OptSeqSolver optseq;
  const CompiledPlan plan = base.TrainPlan(q, splits, optseq, 2);

  std::vector<std::unique_ptr<Mote>> motes;
  std::vector<Mote*> mote_ptrs;
  for (int m = 0; m < 50; ++m) {
    motes.push_back(std::make_unique<Mote>(
        m, schema, cm, [](size_t, AttrId) { return Value{0}; }));
    mote_ptrs.push_back(motes.back().get());
  }
  const size_t installed = base.Disseminate(plan, mote_ptrs);
  EXPECT_LT(installed, 50u);
  EXPECT_GT(installed, 5u);
}

TEST(BasestationTest, AckRetransmissionConfirmsMoreInstalls) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  const CompiledPlan plan =
      CompiledPlan::Compile(*PlanNode::Sequential({Predicate(0, 1, 2)}));

  auto run = [&](int max_attempts) {
    Radio radio(Radio::Options{
        .cost_per_byte = 0.0, .drop_probability = 0.5, .seed = 33});
    Basestation base(schema, cm, radio);
    std::vector<std::unique_ptr<Mote>> motes;
    std::vector<Mote*> ptrs;
    for (int m = 0; m < 40; ++m) {
      motes.push_back(std::make_unique<Mote>(
          m, schema, cm, [](size_t, AttrId) { return Value{1}; }));
      ptrs.push_back(motes.back().get());
    }
    Basestation::DisseminateOptions opts;
    opts.max_attempts = max_attempts;
    opts.require_ack = true;
    return base.Disseminate(plan, ptrs, opts);
  };

  // With 50% loss each way, one attempt confirms ~25% of installs; eight
  // attempts confirm nearly all of them.
  const size_t one_shot = run(1);
  const size_t retried = run(8);
  EXPECT_GT(retried, one_shot);
  EXPECT_GT(retried, 30u);
  EXPECT_LT(one_shot, 20u);
}

TEST(BasestationTest, RetransmissionBackoffChargesTheBasestation) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  const CompiledPlan plan =
      CompiledPlan::Compile(*PlanNode::Sequential({Predicate(0, 1, 2)}));
  Radio radio(Radio::Options{
      .cost_per_byte = 0.0, .drop_probability = 0.7, .seed = 5});
  Basestation base(schema, cm, radio);
  Mote mote(0, schema, cm, [](size_t, AttrId) { return Value{1}; });
  std::vector<Mote*> ptrs = {&mote};
  Basestation::DisseminateOptions opts;
  opts.max_attempts = 6;
  opts.require_ack = true;
  opts.backoff_cost = 0.25;
  base.Disseminate(plan, ptrs, opts);
  // The radio itself was free; any energy spent is backoff idle-listening.
  EXPECT_GE(base.energy().spent(), 0.0);
  if (radio.messages_dropped() > 0) {
    EXPECT_GT(base.energy().spent(), 0.0);
  }
}

TEST(BasestationTest, EpochReportCountsDegradedAndBrownedOutMotes) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  Radio radio(Radio::Options{.cost_per_byte = 0.0});
  Basestation base(schema, cm, radio);
  const CompiledPlan plan =
      CompiledPlan::Compile(*PlanNode::Sequential({Predicate(0, 1, 3)}));

  // Mote 0: healthy and always matching. Mote 1: every acquisition fails
  // (unknown verdicts). Mote 2: energy for roughly one epoch, then browns
  // out.
  Mote healthy(0, schema, cm, [](size_t, AttrId) { return Value{1}; });
  healthy.InstallPlan(plan);

  Mote faulty(1, schema, cm, [](size_t, AttrId) { return Value{1}; });
  faulty.InstallPlan(plan);
  FaultSpec all_fail;
  all_fail.transient = 1.0;
  const FaultInjector injector(all_fail);
  faulty.SetFaultInjector(&injector);

  Mote dying(2, schema, cm, [](size_t, AttrId) { return Value{1}; },
             /*energy_budget=*/1.5);
  dying.InstallPlan(plan);

  std::vector<Mote*> ptrs = {&healthy, &faulty, &dying};
  const auto reports = base.RunContinuousQuery(ptrs, /*epochs=*/3);
  ASSERT_EQ(reports.size(), 3u);

  // Every epoch: healthy reports a defined match; faulty reports Unknown.
  for (const auto& rep : reports) {
    EXPECT_GE(rep.matches, 1u);
    EXPECT_EQ(rep.unknown_verdicts, 1u);
    EXPECT_EQ(rep.unreachable, 0u);
  }
  // The dying mote afforded epoch 0 (cost 1.0 <= 1.5) and browned out after.
  EXPECT_EQ(reports[0].browned_out, 0u);
  EXPECT_EQ(reports[1].browned_out, 1u);
  EXPECT_EQ(reports[2].browned_out, 1u);
  EXPECT_EQ(dying.brownouts(), 2u);
}

TEST(BasestationTest, UnreachableMotesAreCounted) {
  const Schema schema = SmallSchema();
  PerAttributeCostModel cm(schema);
  // Result messages always lost in the channel.
  Radio radio(Radio::Options{.cost_per_byte = 0.0, .drop_probability = 1.0});
  Basestation base(schema, cm, radio);
  Mote mote(0, schema, cm, [](size_t, AttrId) { return Value{1}; });
  mote.InstallPlan(
      CompiledPlan::Compile(*PlanNode::Sequential({Predicate(0, 1, 3)})));
  std::vector<Mote*> ptrs = {&mote};
  const auto reports = base.RunContinuousQuery(ptrs, /*epochs=*/2);
  for (const auto& rep : reports) {
    EXPECT_EQ(rep.matches, 0u);
    EXPECT_EQ(rep.unreachable, 1u);
  }
}

}  // namespace
}  // namespace caqp
