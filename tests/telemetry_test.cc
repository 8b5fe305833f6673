// Live-telemetry-plane tests (caqp::obs v3): canonical Prometheus metric
// naming and rendering, the embedded MetricsExposer scraped over a real
// loopback socket, multi-window SLO burn-rate math on synthetic clocks, the
// dist acceptance predicate on traces as recorded (every shard span under
// the coordinator request span), per-kernel executor counters, and the
// shard-flapping stress tests that pin the cross-shard CalibrationAggregator
// merge and the trace parentage under concurrent kill/revive.
// Every suite is named Telemetry* so scripts/check.sh selects them for the
// TSan build.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "dist/coordinator.h"
#include "dist/partition.h"
#include "exec/batch_executor.h"
#include "exec/executor.h"
#include "obs/exposer.h"
#include "obs/histogram.h"
#include "obs/obs.h"
#include "obs/prometheus.h"
#include "obs/registry.h"
#include "obs/slo.h"
#include "obs/span.h"
#include "opt/greedy_plan.h"
#include "opt/greedyseq.h"
#include "opt/split_points.h"
#include "plan/compiled_plan.h"
#include "prob/chow_liu.h"
#include "serve/query_service.h"
#include "test_util.h"

namespace caqp {
namespace {

using obs::CanonicalMetricName;
using obs::CanonicalizeSnapshot;
using obs::MetricKind;
using obs::MetricsExposer;
using obs::RegistrySnapshot;
using obs::RenderPrometheusText;
using obs::SloMonitor;
using obs::SpanEvent;
using testing_util::CounterIn;

// ---------------------------------------------------------------------------
// Canonical metric names and exposition rendering
// ---------------------------------------------------------------------------

TEST(TelemetryMetricNameTest, CanonicalFormRules) {
  EXPECT_EQ(CanonicalMetricName("serve.requests", MetricKind::kCounter),
            "serve_requests_total");
  EXPECT_EQ(CanonicalMetricName("serve.requests_total", MetricKind::kCounter),
            "serve_requests_total");
  EXPECT_EQ(CanonicalMetricName("serve.queue.depth", MetricKind::kGauge),
            "serve_queue_depth");
  EXPECT_EQ(CanonicalMetricName("exec.latency-ms", MetricKind::kHistogram),
            "exec_latency_ms");
  EXPECT_EQ(CanonicalMetricName("9lives", MetricKind::kGauge), "_9lives");
  EXPECT_EQ(CanonicalMetricName("", MetricKind::kGauge), "_");
}

TEST(TelemetryMetricNameTest, CanonicalizeRenamesLegacyNames) {
  RegistrySnapshot snap;
  snap.counters.push_back({"serve.cache.hits", 5});
  snap.gauges.push_back({"already_canonical", 1.0});
  const RegistrySnapshot canon = CanonicalizeSnapshot(snap);
  ASSERT_EQ(canon.counters.size(), 1u);
  EXPECT_EQ(canon.counters[0].name, "serve_cache_hits_total");
  EXPECT_EQ(canon.counters[0].value, 5u);
  ASSERT_EQ(canon.gauges.size(), 1u);
  EXPECT_EQ(canon.gauges[0].name, "already_canonical");
}

TEST(TelemetryMetricNameTest, CollidingCanonicalNamesMergeIntoOneSeries) {
  // "serve.cache.hits" and "serve.cache_hits" both canonicalize to
  // serve_cache_hits_total; a duplicate series is invalid exposition, so
  // the canonicalizer must merge them (counters sum, gauges max).
  RegistrySnapshot snap;
  snap.counters.push_back({"serve.cache.hits", 5});
  snap.counters.push_back({"serve.cache_hits", 7});
  snap.gauges.push_back({"a.b", 1.0});
  snap.gauges.push_back({"a_b", 3.0});
  const RegistrySnapshot canon = CanonicalizeSnapshot(snap);
  ASSERT_EQ(canon.counters.size(), 1u);
  EXPECT_EQ(canon.counters[0].name, "serve_cache_hits_total");
  EXPECT_EQ(canon.counters[0].value, 12u);
  ASSERT_EQ(canon.gauges.size(), 1u);
  EXPECT_EQ(canon.gauges[0].value, 3.0);
}

// Minimal exposition validator: every sample line's metric name must be
// declared by a preceding # TYPE line, no metric name may be declared
// twice, and every line is either a comment or "name{labels} value".
void ValidateExposition(const std::string& text) {
  std::set<std::string> declared;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "missing trailing newline";
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      const size_t sp = line.find(' ', 7);
      ASSERT_NE(sp, std::string::npos) << line;
      const std::string name = line.substr(7, sp - 7);
      EXPECT_TRUE(declared.insert(name).second)
          << "duplicate TYPE declaration for " << name;
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment form: " << line;
    const size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(name_end, std::string::npos) << line;
    std::string name = line.substr(0, name_end);
    // _bucket/_sum/_count samples belong to their parent histogram/summary.
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const size_t n = std::strlen(suffix);
      if (name.size() > n && name.compare(name.size() - n, n, suffix) == 0 &&
          declared.count(name) == 0) {
        name = name.substr(0, name.size() - n);
      }
    }
    EXPECT_TRUE(declared.count(name) > 0)
        << "sample for undeclared metric: " << line;
  }
}

TEST(TelemetryMetricNameTest, RenderedExpositionIsValidAndDeduplicated) {
  RegistrySnapshot snap;
  snap.counters.push_back({"serve.requests", 42});
  snap.counters.push_back({"serve.cache.hits", 5});
  snap.counters.push_back({"serve.cache_hits", 5});  // canonical collision
  snap.gauges.push_back({"serve.queue.depth", 3.5});
  obs::Histogram build;
  for (double v : {0.2, 0.2, 0.3, 0.4}) build.Record(v);
  RegistrySnapshot::HistogramValue build_hv;
  build_hv.name = "plan.build_seconds";
  build_hv.hist = build.Snapshot();
  snap.histograms.push_back(build_hv);
  obs::Histogram latency;
  latency.Record(0.001);
  latency.Record(0.002);
  latency.Record(1.5);
  RegistrySnapshot::HistogramValue hv;
  hv.name = "serve.latency_seconds";
  hv.hist = latency.Snapshot();
  snap.histograms.push_back(hv);

  const std::string text = RenderPrometheusText(snap);
  ValidateExposition(text);
  EXPECT_NE(text.find("# TYPE serve_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_requests_total 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE serve_queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE plan_build_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("plan_build_seconds_count 4\n"), std::string::npos);
  EXPECT_EQ(text.find(" summary\n"), std::string::npos);
  EXPECT_NE(text.find("serve_latency_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_latency_seconds_count 3\n"), std::string::npos);
  // The collision rendered exactly one TYPE line and one sample.
  const size_t first = text.find("serve_cache_hits_total");
  const size_t second = text.find("# TYPE serve_cache_hits_total",
                                  first + 1);
  EXPECT_EQ(second, std::string::npos);
  EXPECT_NE(text.find("serve_cache_hits_total 10\n"), std::string::npos);
}

TEST(TelemetryMetricNameTest, MergeSnapshotSumsCountersAndMergesHists) {
  RegistrySnapshot a;
  a.counters.push_back({"x", 1});
  a.gauges.push_back({"g", 2.0});
  RegistrySnapshot b;
  b.counters.push_back({"x", 3});
  b.counters.push_back({"y", 7});
  b.gauges.push_back({"g", 1.0});
  a.MergeFrom(b);
  ASSERT_EQ(a.counters.size(), 2u);
  EXPECT_EQ(a.counters[0].name, "x");
  EXPECT_EQ(a.counters[0].value, 4u);
  EXPECT_EQ(a.counters[1].value, 7u);
  ASSERT_EQ(a.gauges.size(), 1u);
  EXPECT_EQ(a.gauges[0].value, 2.0);  // gauges keep the max
}

// ---------------------------------------------------------------------------
// MetricsExposer over a real loopback socket
// ---------------------------------------------------------------------------

// Blocking one-shot HTTP client, enough for Connection: close servers.
std::string HttpRequest(uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    ADD_FAILURE() << "connect failed: " << std::strerror(errno);
    return "";
  }
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

std::string Get(uint16_t port, const std::string& path) {
  return HttpRequest(port, "GET " + path +
                               " HTTP/1.1\r\nHost: t\r\n"
                               "Connection: close\r\n\r\n");
}

TEST(TelemetryExposerTest, ServesMetricsOnEphemeralPort) {
  std::atomic<int> renders{0};
  MetricsExposer exposer(
      [&renders] {
        renders.fetch_add(1);
        RegistrySnapshot snap;
        snap.counters.push_back({"test.scrapes", 1});
        return RenderPrometheusText(snap);
      },
      MetricsExposer::Options{});
  ASSERT_TRUE(exposer.Start().ok());
  ASSERT_NE(exposer.port(), 0);
  EXPECT_TRUE(exposer.running());

  const std::string resp = Get(exposer.port(), "/metrics");
  EXPECT_NE(resp.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(resp.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(resp.find("test_scrapes_total 1\n"), std::string::npos);
  EXPECT_GE(renders.load(), 1);
  EXPECT_GE(exposer.requests_served(), 1u);

  const std::string health = Get(exposer.port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(health.find("ok\n"), std::string::npos);

  EXPECT_NE(Get(exposer.port(), "/nope").find("HTTP/1.1 404"),
            std::string::npos);
  EXPECT_NE(HttpRequest(exposer.port(),
                        "POST /metrics HTTP/1.1\r\nHost: t\r\n"
                        "Connection: close\r\n\r\n")
                .find("HTTP/1.1 405"),
            std::string::npos);

  exposer.Stop();
  EXPECT_FALSE(exposer.running());
  exposer.Stop();  // idempotent
}

TEST(TelemetryExposerTest, OccupiedPortFailsWithoutCrashing) {
  MetricsExposer first([] { return std::string(); },
                       MetricsExposer::Options{});
  ASSERT_TRUE(first.Start().ok());
  MetricsExposer::Options opts;
  opts.port = first.port();
  MetricsExposer second([] { return std::string(); }, opts);
  EXPECT_FALSE(second.Start().ok());
  EXPECT_FALSE(second.running());
}

TEST(TelemetryExposerTest, ConstructedButNotStartedIsInert) {
  // The bench_obs_overhead contract: an exposer that is never started
  // binds nothing and spawns nothing; destruction is a no-op.
  MetricsExposer exposer([] { return std::string("x"); },
                         MetricsExposer::Options{});
  EXPECT_FALSE(exposer.running());
  EXPECT_EQ(exposer.port(), 0);
}

TEST(TelemetryExposerTest, ConcurrentScrapesAllSucceed) {
  MetricsExposer exposer([] { return std::string("a 1\n"); },
                         MetricsExposer::Options{});
  ASSERT_TRUE(exposer.Start().ok());
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  clients.reserve(4);
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&] {
      for (int j = 0; j < 8; ++j) {
        const std::string r = Get(exposer.port(), "/metrics");
        if (r.find("HTTP/1.1 200") != std::string::npos &&
            r.find("a 1\n") != std::string::npos) {
          ok.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), 32);
  EXPECT_GE(exposer.requests_served(), 32u);
}

// ---------------------------------------------------------------------------
// SLO burn-rate math on a synthetic clock
// ---------------------------------------------------------------------------

// 64 buckets over 64us => 1us buckets; 4-bucket fast window. Every
// timestamp below is synthetic, so the tests are exact and clock-free.
SloMonitor::Options TinySloOptions() {
  SloMonitor::Options o;
  o.slow_window_ns = 64000;
  o.fast_window_ns = 4000;
  o.availability_target = 0.9;  // all-bad burn = 1/0.1 = 10
  o.latency_target = 0.9;
  o.latency_threshold_seconds = 0.1;
  o.fast_burn_threshold = 5.0;
  o.slow_burn_threshold = 2.0;
  o.min_window_requests = 8;
  o.cooloff_ns = 10000;
  o.check_interval = 1;
  return o;
}

TEST(TelemetrySloTest, FiresWhenBothWindowsBreach) {
  SloMonitor::Options opts = TinySloOptions();
  std::vector<SloMonitor::BurnEvent> events;
  opts.on_burn = [&events](const SloMonitor::BurnEvent& e) {
    events.push_back(e);
  };
  SloMonitor mon(opts);
  for (int i = 0; i < 32; ++i) {
    mon.RecordRequest(/*now_ns=*/5000, /*available=*/false, 0.0);
  }
  // Fires exactly once: the first evaluation with >= min_window_requests
  // trips, and all later records land inside the cooloff.
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].slo, SloMonitor::Slo::kAvailability);
  EXPECT_DOUBLE_EQ(events[0].fast_burn, 10.0);
  EXPECT_DOUBLE_EQ(events[0].slow_burn, 10.0);
  EXPECT_EQ(mon.burns_fired(), 1u);
}

TEST(TelemetrySloTest, FastOnlyBreachDoesNotFire) {
  SloMonitor::Options opts = TinySloOptions();
  SloMonitor mon(opts);
  // A long healthy history outside the fast window...
  for (uint64_t bucket = 0; bucket < 56; ++bucket) {
    for (int i = 0; i < 100; ++i) {
      mon.RecordRequest(bucket * 1000, /*available=*/true, 0.0);
    }
  }
  // ...then a total outage burst confined to the fast window. Fast burn is
  // 10 (>= 5) but the slow window has 5600 good requests, so slow burn is
  // (20/5620)/0.1 ~= 0.036 (< 2): the multi-window rule suppresses it.
  for (int i = 0; i < 20; ++i) {
    mon.RecordRequest(/*now_ns=*/60000, /*available=*/false, 0.0);
  }
  EXPECT_EQ(mon.burns_fired(), 0u);
  const SloMonitor::Snapshot snap = mon.GetSnapshot(60000);
  EXPECT_GE(snap.availability_fast_burn, 5.0);
  EXPECT_LT(snap.availability_slow_burn, 2.0);
}

TEST(TelemetrySloTest, CooloffSpacesRepeatedFires) {
  SloMonitor::Options opts = TinySloOptions();
  SloMonitor mon(opts);
  for (int i = 0; i < 32; ++i) mon.RecordRequest(5000, false, 0.0);
  EXPECT_EQ(mon.burns_fired(), 1u);
  // Still inside the 10us cooloff: no second fire.
  for (int i = 0; i < 32; ++i) mon.RecordRequest(9000, false, 0.0);
  EXPECT_EQ(mon.burns_fired(), 1u);
  // Past the cooloff: fires again.
  for (int i = 0; i < 32; ++i) mon.RecordRequest(16000, false, 0.0);
  EXPECT_EQ(mon.burns_fired(), 2u);
}

TEST(TelemetrySloTest, LatencySloFiresIndependentlyOfAvailability) {
  SloMonitor::Options opts = TinySloOptions();
  std::vector<SloMonitor::BurnEvent> events;
  opts.on_burn = [&events](const SloMonitor::BurnEvent& e) {
    events.push_back(e);
  };
  SloMonitor mon(opts);
  // Available but slow: only the latency SLO burns.
  for (int i = 0; i < 32; ++i) {
    mon.RecordRequest(5000, /*available=*/true, /*latency_seconds=*/0.5);
  }
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].slo, SloMonitor::Slo::kLatency);
  const SloMonitor::Snapshot snap = mon.GetSnapshot(5000);
  EXPECT_DOUBLE_EQ(snap.availability_ratio, 1.0);
  EXPECT_DOUBLE_EQ(snap.latency_ratio, 0.0);
}

TEST(TelemetrySloTest, MinWindowRequestsGatesFiring) {
  SloMonitor::Options opts = TinySloOptions();
  SloMonitor mon(opts);
  for (int i = 0; i < 7; ++i) mon.RecordRequest(5000, false, 0.0);
  EXPECT_EQ(mon.burns_fired(), 0u);  // 7 < min_window_requests = 8
  mon.RecordRequest(5000, false, 0.0);
  EXPECT_EQ(mon.burns_fired(), 1u);
}

TEST(TelemetrySloTest, SnapshotRatiosReflectTheWindow) {
  SloMonitor::Options opts = TinySloOptions();
  SloMonitor mon(opts);
  for (int i = 0; i < 90; ++i) mon.RecordRequest(5000, true, 0.0);
  for (int i = 0; i < 10; ++i) mon.RecordRequest(5000, false, 0.2);
  const SloMonitor::Snapshot snap = mon.GetSnapshot(5000);
  EXPECT_EQ(snap.requests_slow, 100u);
  EXPECT_DOUBLE_EQ(snap.availability_ratio, 0.9);
  EXPECT_DOUBLE_EQ(snap.latency_ratio, 0.9);
  // 10% bad against a 10% budget: burning at exactly the sustainable rate.
  EXPECT_DOUBLE_EQ(snap.availability_slow_burn, 1.0);
}

TEST(TelemetrySloTest, ConcurrentRecordersAreRaceFreeAndFire) {
  SloMonitor::Options opts = TinySloOptions();
  opts.cooloff_ns = 1;  // let every thread's window fire
  SloMonitor mon(opts);
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&mon, t] {
      for (int i = 0; i < 2000; ++i) {
        mon.RecordRequest(5000 + static_cast<uint64_t>(t), false, 0.5);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GE(mon.burns_fired(), 1u);
  const SloMonitor::Snapshot snap = mon.GetSnapshot(5000);
  EXPECT_EQ(snap.requests_slow, 8000u);
}

// ---------------------------------------------------------------------------
// QueryService SLO integration
// ---------------------------------------------------------------------------

struct TelemetryServiceFixture {
  Schema schema = testing_util::SmallSchema();
  Dataset data = testing_util::CorrelatedDataset(schema, 4000, 11);
  PerAttributeCostModel cm{schema};
  SplitPointSet splits = SplitPointSet::AllPoints(schema);
  GreedySeqSolver solver;
  ChowLiuEstimator estimator{data};
  std::unique_ptr<GreedyPlanner> planner;

  TelemetryServiceFixture() {
    GreedyPlanner::Options opts;
    opts.split_points = &splits;
    opts.seq_solver = &solver;
    opts.max_splits = 3;
    planner = std::make_unique<GreedyPlanner>(estimator, cm, opts);
  }

  serve::QueryService MakeService(serve::QueryService::Options opts) {
    return serve::QueryService(
        schema, cm,
        [this] {
          return std::make_unique<serve::SharedPlannerBuilder>(*planner, 21);
        },
        opts);
  }
};

TEST(TelemetryServeSloTest, LatencyBurnFiresAndRecordsIncident) {
  TelemetryServiceFixture fx;
  serve::QueryService::Options opts;
  opts.num_workers = 2;
  opts.enable_tracing = true;
  opts.enable_slo = true;
  // Impossible latency SLO: every request is "slow", so the burn fires as
  // soon as min_window_requests requests complete.
  opts.slo.latency_threshold_seconds = 0.0;
  opts.slo.latency_target = 0.5;
  opts.slo.fast_burn_threshold = 1.5;
  opts.slo.slow_burn_threshold = 1.0;
  opts.slo.min_window_requests = 8;
  opts.slo.check_interval = 1;
  opts.slo.cooloff_ns = 3600ull * 1000 * 1000 * 1000;
  std::atomic<int> user_burns{0};
  opts.slo.on_burn = [&user_burns](const SloMonitor::BurnEvent&) {
    user_burns.fetch_add(1);
  };
  serve::QueryService service = fx.MakeService(opts);
  const Query q =
      Query::Conjunction({Predicate(2, 1, 3), Predicate(0, 1, 2)});
  for (RowId r = 0; r < 64; ++r) {
    const serve::QueryService::Response resp =
        service.SubmitAndWait(q, fx.data.GetTuple(r));
    EXPECT_TRUE(resp.status.ok());
  }
  ASSERT_NE(service.slo_monitor(), nullptr);
  EXPECT_GE(service.slo_burns_fired(), 1u);
  EXPECT_GE(user_burns.load(), 1);  // the user hook still runs after ours
  const SloMonitor::Snapshot snap =
      service.slo_monitor()->GetSnapshot(obs::MonotonicNowNs());
  EXPECT_LT(snap.latency_ratio, 1.0);
  // The burn left a flight-recorder incident for postmortems.
  bool found = false;
  for (const auto& incident : service.trace_recorder().Incidents()) {
    if (incident.reason == "slo_burn_latency") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(TelemetryServeSloTest, DisabledSloLeavesNoMonitor) {
  TelemetryServiceFixture fx;
  serve::QueryService::Options opts;
  opts.num_workers = 2;
  serve::QueryService service = fx.MakeService(opts);
  EXPECT_EQ(service.slo_monitor(), nullptr);
  EXPECT_EQ(service.slo_burns_fired(), 0u);
  const Query q = Query::Conjunction({Predicate(0, 1, 2)});
  EXPECT_TRUE(service.SubmitAndWait(q, fx.data.GetTuple(0)).status.ok());
}

// ---------------------------------------------------------------------------
// Dist end to end: one unified trace per request
// ---------------------------------------------------------------------------

struct TelemetryDistFixture {
  Schema schema = testing_util::SmallSchema();
  Dataset data = testing_util::CorrelatedDataset(schema, 6000, 17);
  PerAttributeCostModel cm{schema};
  SplitPointSet splits = SplitPointSet::AllPoints(schema);
  GreedySeqSolver solver;
  ChowLiuEstimator estimator{data};
  std::unique_ptr<GreedyPlanner> planner;

  TelemetryDistFixture() {
    GreedyPlanner::Options opts;
    opts.split_points = &splits;
    opts.seq_solver = &solver;
    opts.max_splits = 3;
    planner = std::make_unique<GreedyPlanner>(estimator, cm, opts);
  }

  dist::Coordinator MakeCoordinator(dist::Coordinator::Options opts) {
    return dist::Coordinator(
        data, cm,
        [this] {
          return std::make_unique<serve::SharedPlannerBuilder>(*planner, 21);
        },
        std::move(opts));
  }

  Query MidQuery() const {
    return Query::Conjunction(
        {Predicate(2, 1, 3), Predicate(3, 2, 4), Predicate(0, 1, 2)});
  }
};

TEST(TelemetryDistTraceTest, EveryShardSpanJoinsUnderTheRequestSpan) {
  TelemetryDistFixture fx;
  dist::Coordinator::Options opts;
  opts.partition = dist::PartitionSpec::Hash(4);
  opts.enable_tracing = true;
  dist::Coordinator coord = fx.MakeCoordinator(opts);

  std::vector<uint64_t> trace_ids;
  Rng rng(33);
  for (int i = 0; i < 4; ++i) {
    const Query q =
        i == 0 ? fx.MidQuery()
               : testing_util::RandomConjunctiveQuery(fx.schema, rng);
    const dist::Coordinator::Response resp = coord.Execute(q);
    ASSERT_TRUE(resp.ok()) << resp.status.ToString();
    ASSERT_NE(resp.trace_id, 0u);
    trace_ids.push_back(resp.trace_id);
  }

  const std::vector<SpanEvent> events = coord.trace_recorder().Events();
  EXPECT_EQ(coord.trace_recorder().dropped_events(), 0u);
  for (uint64_t trace_id : trace_ids) {
    // The acceptance predicate: ONE trace, rooted at the coordinator's
    // request span, with every shard-side span reachable from it.
    std::vector<SpanEvent> spans;
    ASSERT_TRUE(
        testing_util::TraceIsOneTree(events, trace_id, "dist.query", &spans));
    std::set<uint32_t> workers;
    for (const SpanEvent& ev : spans) {
      workers.insert(ev.worker);
      if (ev.parent_id == 0) {
        EXPECT_EQ(ev.worker, 0u);  // the root lives in the coord slot
      }
    }
    // Coordinator slot plus every scattered shard slot (4 shards).
    EXPECT_GE(workers.size(), 5u) << "trace " << trace_id;
  }
}

// ---------------------------------------------------------------------------
// Shard flapping: calibration merge + trace join under chaos (TSan target)
// ---------------------------------------------------------------------------

TEST(TelemetryFlapTest, CalibrationAndTracesSurviveConcurrentShardFlapping) {
  TelemetryDistFixture fx;
  dist::Coordinator::Options opts;
  opts.partition = dist::PartitionSpec::Hash(4);
  opts.enable_tracing = true;
  opts.enable_calibration = true;
  opts.shard_deadline_seconds = 2.0;
  dist::Coordinator coord = fx.MakeCoordinator(opts);

  constexpr int kClients = 3;
  constexpr int kQueriesPerClient = 20;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> shard_executions{0};  // lower bound: shards_ok sum
  std::vector<std::vector<uint64_t>> trace_ids(kClients);

  std::thread flapper([&coord, &stop] {
    Rng rng(77);
    while (!stop.load(std::memory_order_acquire)) {
      const size_t shard = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(coord.num_shards()) - 1));
      coord.KillShard(shard);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      coord.ReviveShard(shard);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // A scraper thread exercises the read paths concurrently with writers —
  // exactly what a /metrics exposer does in production.
  std::thread scraper([&coord, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      const obs::CalibrationReport report = coord.CalibrationSnapshot();
      (void)report.regret();
      (void)coord.trace_recorder().Events();
      (void)coord.Report();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(100 + static_cast<uint64_t>(c));
      for (int i = 0; i < kQueriesPerClient; ++i) {
        const Query q =
            testing_util::RandomConjunctiveQuery(fx.schema, rng);
        const dist::Coordinator::Response resp = coord.Execute(q);
        ASSERT_TRUE(resp.ok()) << resp.status.ToString();
        shard_executions.fetch_add(resp.shards_ok);
        // A shard abandoned at the gather deadline may still be recording
        // this trace's spans when they are read below.
        const bool straggled = std::any_of(
            resp.shard_status.begin(), resp.shard_status.end(),
            [](const Status& st) {
              return st.code() == StatusCode::kDeadlineExceeded;
            });
        if (!straggled) trace_ids[c].push_back(resp.trace_id);
      }
    });
  }
  for (auto& t : clients) t.join();
  stop.store(true, std::memory_order_release);
  flapper.join();
  scraper.join();

  // Calibration executions count per-row plan executions. Every shard
  // execution the coordinator saw succeed ran at least one row, and no
  // query can execute a row more than once — the merged report must land
  // between those bounds even with shards dying mid-scatter.
  const obs::CalibrationReport report = coord.CalibrationSnapshot();
  EXPECT_GE(report.executions, shard_executions.load());
  EXPECT_LE(report.executions, static_cast<uint64_t>(kClients) *
                                   kQueriesPerClient * fx.data.num_rows());
  EXPECT_TRUE(std::isfinite(report.regret()));
  EXPECT_TRUE(std::isfinite(report.MaxDrift(1)));

  // Trace parentage as recorded: with shards dying and reviving mid-scatter,
  // every request's spans still form one tree under its dist.query span.
  const std::vector<SpanEvent> events = coord.trace_recorder().Events();
  EXPECT_EQ(coord.trace_recorder().dropped_events(), 0u);
  size_t checked = 0;
  for (const auto& ids : trace_ids) {
    for (uint64_t trace_id : ids) {
      EXPECT_TRUE(testing_util::TraceIsOneTree(events, trace_id, "dist.query"));
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(TelemetryFlapTest, CalibrationMergeIsExactWithoutFaults) {
  TelemetryDistFixture fx;
  dist::Coordinator::Options opts;
  opts.partition = dist::PartitionSpec::Hash(4);
  opts.enable_calibration = true;
  dist::Coordinator coord = fx.MakeCoordinator(opts);
  constexpr int kQueries = 5;
  Rng rng(5);
  for (int i = 0; i < kQueries; ++i) {
    const Query q = i == 0
                        ? fx.MidQuery()
                        : testing_util::RandomConjunctiveQuery(fx.schema, rng);
    const dist::Coordinator::Response resp = coord.Execute(q);
    ASSERT_TRUE(resp.ok()) << resp.status.ToString();
    ASSERT_EQ(resp.shards_ok, coord.num_shards());
  }
  // Fault-free baseline for the flap test above: every row executes
  // exactly once per query, so the cross-shard merge must account for
  // precisely queries x rows executions — nothing lost, nothing double
  // counted.
  const obs::CalibrationReport report = coord.CalibrationSnapshot();
  EXPECT_EQ(report.executions,
            static_cast<uint64_t>(kQueries) * fx.data.num_rows());
}

// ---------------------------------------------------------------------------
// Per-kernel executor counters
// ---------------------------------------------------------------------------

TEST(TelemetryKernelCountersTest, BatchExecutionFeedsPerOpRowCounters) {
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  TelemetryDistFixture fx;
  const Query q = fx.MidQuery();
  const CompiledPlan compiled =
      CompiledPlan::Compile(fx.planner->BuildPlan(q));

  const RegistrySnapshot before = obs::DefaultRegistry().Snapshot();
  std::vector<RowId> rows(fx.data.num_rows());
  for (RowId r = 0; r < fx.data.num_rows(); ++r) rows[r] = r;
  std::vector<uint8_t> verdicts;
  ColumnarBatchExecutor exec(compiled, fx.data, fx.cm);
  exec.Execute(rows, &verdicts);
  const RegistrySnapshot after = obs::DefaultRegistry().Snapshot();
  obs::SetEnabled(was_enabled);

  // Every plan evaluates rows through at least one kernel op; summed
  // per-op row counters must cover at least one pass over the batch.
  uint64_t total_rows = 0;
  for (const auto& c : after.counters) {
    if (c.name.rfind("exec.batch.kernel_rows.", 0) == 0) {
      total_rows += c.value - CounterIn(before, c.name);
    }
  }
  EXPECT_GE(total_rows, fx.data.num_rows());

  // Exactly one dispatch path (masked AVX-512 or selection kernels) ran
  // per chunk; together they cover the batch.
  const uint64_t masked =
      CounterIn(after, "exec.batch.masked_chunks") -
      CounterIn(before, "exec.batch.masked_chunks");
  const uint64_t selection =
      CounterIn(after, "exec.batch.selection_chunks") -
      CounterIn(before, "exec.batch.selection_chunks");
  EXPECT_GT(masked + selection, 0u);
}

}  // namespace
}  // namespace caqp
