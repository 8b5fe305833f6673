// Tests for obs/sharded_registry.h: per-worker metric shards and their
// snapshot-time merge semantics.

#include "obs/sharded_registry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

namespace caqp {
namespace obs {
namespace {

TEST(ShardedRegistryTest, CountersSumAcrossShards) {
  ShardedRegistry reg(3);
  reg.shard(0).GetCounter("hits").Add(5);
  reg.shard(1).GetCounter("hits").Add(7);
  reg.shard(2).GetCounter("misses").Add(2);

  EXPECT_EQ(reg.Snapshot().CounterByName("hits"), 12u);
  EXPECT_EQ(reg.Snapshot().CounterByName("misses"), 2u);
  EXPECT_EQ(reg.Snapshot().CounterByName("never_registered"), 0u);
  // Absent names that sort before and between registered ones.
  EXPECT_EQ(reg.Snapshot().CounterByName("a"), 0u);
  EXPECT_EQ(reg.Snapshot().CounterByName("hitz"), 0u);

  const RegistrySnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "hits");
  EXPECT_EQ(snap.counters[0].value, 12u);
  EXPECT_EQ(snap.counters[1].name, "misses");
  EXPECT_EQ(snap.counters[1].value, 2u);
}

TEST(ShardedRegistryTest, GaugesTakeMaxAcrossShards) {
  ShardedRegistry reg(2);
  reg.shard(0).GetGauge("depth").Set(3.0);
  reg.shard(1).GetGauge("depth").Set(9.0);
  const RegistrySnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 9.0);
}

TEST(ShardedRegistryTest, HistogramsMergeBucketwise) {
  ShardedRegistry reg(2);
  Histogram& a = reg.shard(0).GetHistogram("lat");
  Histogram& b = reg.shard(1).GetHistogram("lat");
  // Identical sample streams split across shards vs fed to one histogram
  // must produce identical merged snapshots.
  Histogram reference;
  for (int i = 1; i <= 100; ++i) {
    const double v = 0.001 * i;
    (i % 2 ? a : b).Record(v);
    reference.Record(v);
  }
  const HistogramSnapshot merged = reg.Snapshot().HistogramByName("lat");
  const HistogramSnapshot expected = reference.Snapshot();
  EXPECT_EQ(merged.count, expected.count);
  EXPECT_DOUBLE_EQ(merged.sum, expected.sum);
  EXPECT_DOUBLE_EQ(merged.min, expected.min);
  EXPECT_DOUBLE_EQ(merged.max, expected.max);
  EXPECT_EQ(merged.buckets, expected.buckets);
  EXPECT_DOUBLE_EQ(merged.p99(), expected.p99());

  EXPECT_EQ(reg.Snapshot().HistogramByName("never_registered").count, 0u);

  const RegistrySnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].hist.count, 100u);
}

TEST(ShardedRegistryTest, ZeroShardsClampsToOne) {
  ShardedRegistry reg(0);
  EXPECT_EQ(reg.num_shards(), 1u);
  reg.shard(5).GetCounter("c").Increment();  // worker index wraps
  EXPECT_EQ(reg.Snapshot().CounterByName("c"), 1u);
}

TEST(ShardedRegistryTest, ResetAllZeroesEveryShard) {
  ShardedRegistry reg(2);
  reg.shard(0).GetCounter("c").Add(4);
  reg.shard(1).GetHistogram("h").Record(0.5);
  reg.ResetAll();
  EXPECT_EQ(reg.Snapshot().CounterByName("c"), 0u);
  EXPECT_EQ(reg.Snapshot().HistogramByName("h").count, 0u);
}

TEST(ShardedRegistryTest, ConcurrentShardWritersWithSnapshotReader) {
  constexpr size_t kShards = 4;
  constexpr uint64_t kPerWorker = 5000;
  ShardedRegistry reg(kShards);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const RegistrySnapshot snap = reg.Snapshot();
      for (const auto& c : snap.counters) {
        EXPECT_LE(c.value, kShards * kPerWorker);
      }
    }
  });
  std::vector<std::thread> workers;
  for (size_t w = 0; w < kShards; ++w) {
    workers.emplace_back([&reg, w] {
      Counter& c = reg.shard(w).GetCounter("ops");
      Histogram& h = reg.shard(w).GetHistogram("lat");
      for (uint64_t i = 0; i < kPerWorker; ++i) {
        c.Increment();
        h.Record(1e-3);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(reg.Snapshot().CounterByName("ops"), kShards * kPerWorker);
  EXPECT_EQ(reg.Snapshot().HistogramByName("lat").count, kShards * kPerWorker);
}

}  // namespace
}  // namespace obs
}  // namespace caqp
