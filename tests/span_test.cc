// Tests for obs/span.h: request-scoped spans, the TraceRecorder, and the
// flight recorder, plus the Chrome trace-event export.

#include "obs/span.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/obs.h"

namespace caqp {
namespace obs {
namespace {

const SpanEvent* FindByName(const std::vector<SpanEvent>& events,
                            std::string_view name) {
  for (const SpanEvent& ev : events) {
    if (std::string_view(ev.name) == name) return &ev;
  }
  return nullptr;
}

TEST(SpanTest, NestedSpansRecordParentage) {
  TraceRecorder recorder(2);
  const uint64_t trace_id = recorder.NewTraceId();
  {
    TraceRecorder::RequestScope scope(&recorder, /*worker=*/1, trace_id);
    ScopedSpan outer("outer");
    ASSERT_TRUE(outer.active());
    {
      ScopedSpan inner("inner");
      ASSERT_TRUE(inner.active());
      EXPECT_EQ(inner.context().parent_id, outer.context().span_id);
      EXPECT_EQ(inner.context().trace_id, trace_id);
    }
    // Sibling after `inner` closed: same parent, fresh span id.
    ScopedSpan sibling("sibling");
    EXPECT_EQ(sibling.context().parent_id, outer.context().span_id);
  }

  const std::vector<SpanEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 3u);
  const SpanEvent* outer = FindByName(events, "outer");
  const SpanEvent* inner = FindByName(events, "inner");
  const SpanEvent* sibling = FindByName(events, "sibling");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(sibling, nullptr);
  EXPECT_EQ(outer->parent_id, 0u);
  EXPECT_EQ(inner->parent_id, outer->span_id);
  EXPECT_EQ(sibling->parent_id, outer->span_id);
  EXPECT_NE(inner->span_id, sibling->span_id);
  for (const SpanEvent& ev : events) {
    EXPECT_EQ(ev.trace_id, trace_id);
    EXPECT_EQ(ev.worker, 1u);
    // Children are contained in the root span's interval.
    EXPECT_GE(ev.start_ns, outer->start_ns);
    EXPECT_LE(ev.start_ns + ev.dur_ns, outer->start_ns + outer->dur_ns);
  }
}

TEST(SpanTest, UnboundThreadIsNoOp) {
  EXPECT_FALSE(TracingBound());
  ScopedSpan span("orphan");
  EXPECT_FALSE(span.active());
  EXPECT_EQ(span.context().trace_id, 0u);
  RecordSpan("orphan2", 1, 2);  // must not crash
}

TEST(SpanTest, RuntimeDisabledIsNoOp) {
  TraceRecorder recorder(1);
  TraceRecorder::RequestScope scope(&recorder, 0, recorder.NewTraceId());
  SetEnabled(false);
  {
    ScopedSpan span("dark");
    EXPECT_FALSE(span.active());
    RecordSpan("dark2", 1, 2);
  }
  SetEnabled(true);
  EXPECT_TRUE(recorder.Events().empty());
}

TEST(SpanTest, ExplicitStartBackdatesSpan) {
  TraceRecorder recorder(1);
  TraceRecorder::RequestScope scope(&recorder, 0, recorder.NewTraceId());
  const uint64_t backdated = MonotonicNowNs() - 5'000'000;  // 5ms ago
  { ScopedSpan span("root", backdated); }
  const std::vector<SpanEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].start_ns, backdated);
  EXPECT_GE(events[0].dur_ns, 5'000'000u);
}

TEST(SpanTest, RecordSpanNestsUnderOpenSpan) {
  TraceRecorder recorder(1);
  TraceRecorder::RequestScope scope(&recorder, 0, recorder.NewTraceId());
  {
    ScopedSpan root("root");
    RecordSpan("closed", 10, 25);
  }
  const std::vector<SpanEvent> events = recorder.Events();
  const SpanEvent* root = FindByName(events, "root");
  const SpanEvent* closed = FindByName(events, "closed");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(closed, nullptr);
  EXPECT_EQ(closed->parent_id, root->span_id);
  EXPECT_EQ(closed->start_ns, 10u);
  EXPECT_EQ(closed->dur_ns, 15u);
}

TEST(SpanTest, EventsMergeSortedAcrossWorkers) {
  TraceRecorder recorder(3);
  SpanEvent ev;
  ev.trace_id = 1;
  ev.name = "e";
  ev.start_ns = 30;
  recorder.Record(2, ev);
  ev.start_ns = 10;
  recorder.Record(0, ev);
  ev.start_ns = 20;
  recorder.Record(1, ev);
  const std::vector<SpanEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].start_ns, 10u);
  EXPECT_EQ(events[1].start_ns, 20u);
  EXPECT_EQ(events[2].start_ns, 30u);
}

TEST(SpanTest, DropsEventsPastPerWorkerCap) {
  TraceRecorder::Options opts;
  opts.max_events_per_worker = 4;
  opts.flight_capacity = 2;
  TraceRecorder recorder(1, opts);
  SpanEvent ev;
  ev.name = "e";
  for (uint64_t i = 0; i < 6; ++i) {
    ev.start_ns = i;
    recorder.Record(0, ev);
  }
  EXPECT_EQ(recorder.Events().size(), 4u);
  EXPECT_EQ(recorder.dropped_events(), 2u);
}

TEST(SpanTest, RequestScopeRestoresPreviousBinding) {
  TraceRecorder recorder(1);
  EXPECT_FALSE(TracingBound());
  {
    TraceRecorder::RequestScope scope(&recorder, 0, recorder.NewTraceId());
    EXPECT_TRUE(TracingBound());
  }
  EXPECT_FALSE(TracingBound());
}

TEST(SpanTest, NewTraceIdIsNeverZeroAndUnique) {
  TraceRecorder recorder(1);
  const uint64_t a = recorder.NewTraceId();
  const uint64_t b = recorder.NewTraceId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST(SpanTest, ConcurrentWorkersRecordIndependently) {
  constexpr size_t kWorkers = 4;
  constexpr size_t kSpansEach = 200;
  TraceRecorder recorder(kWorkers);
  std::atomic<bool> stop{false};
  // A reader thread polls merged views while writers record: exercises the
  // shard locking under TSan.
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      recorder.Events();
      recorder.incident_count();
    }
  });
  std::vector<std::thread> workers;
  for (size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&recorder, w] {
      TraceRecorder::RequestScope scope(&recorder, w, recorder.NewTraceId());
      for (size_t i = 0; i < kSpansEach; ++i) {
        ScopedSpan span("work");
        if (i % 50 == 0) recorder.DumpFlight(w, 0, "probe");
      }
    });
  }
  for (std::thread& t : workers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(recorder.Events().size(), kWorkers * kSpansEach);
  EXPECT_EQ(recorder.incident_count(), kWorkers * (kSpansEach / 50));
}

TEST(FlightRecorderTest, RingKeepsMostRecentEventsOldestFirst) {
  TraceRecorder::Options opts;
  opts.flight_capacity = 4;
  TraceRecorder recorder(1, opts);
  SpanEvent ev;
  ev.name = "e";
  for (uint64_t i = 0; i < 6; ++i) {
    ev.start_ns = i;
    recorder.Record(0, ev);
  }
  recorder.DumpFlight(0, /*trace_id=*/42, "deadline_exceeded");
  const std::vector<TraceRecorder::Incident> incidents = recorder.Incidents();
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].trace_id, 42u);
  EXPECT_EQ(incidents[0].reason, "deadline_exceeded");
  ASSERT_EQ(incidents[0].events.size(), 4u);
  // Events 0 and 1 were evicted; the survivors come out oldest first.
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(incidents[0].events[i].start_ns, i + 2);
  }
}

TEST(FlightRecorderTest, PartialRingDumpsInInsertionOrder) {
  TraceRecorder::Options opts;
  opts.flight_capacity = 8;
  TraceRecorder recorder(1, opts);
  SpanEvent ev;
  ev.name = "e";
  for (uint64_t i = 0; i < 3; ++i) {
    ev.start_ns = i;
    recorder.Record(0, ev);
  }
  recorder.DumpFlight(0, 7, "fallback");
  const std::vector<TraceRecorder::Incident> incidents = recorder.Incidents();
  ASSERT_EQ(incidents.size(), 1u);
  ASSERT_EQ(incidents[0].events.size(), 3u);
  for (uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(incidents[0].events[i].start_ns, i);
  }
}

TEST(FlightRecorderTest, IncidentListDiscardsOldestPastCap) {
  TraceRecorder::Options opts;
  opts.max_incidents = 2;
  TraceRecorder recorder(1, opts);
  recorder.DumpFlight(0, 1, "a");
  recorder.DumpFlight(0, 2, "b");
  recorder.DumpFlight(0, 3, "c");
  const std::vector<TraceRecorder::Incident> incidents = recorder.Incidents();
  ASSERT_EQ(incidents.size(), 2u);
  EXPECT_EQ(incidents[0].trace_id, 2u);
  EXPECT_EQ(incidents[1].trace_id, 3u);
}

TEST(FlightRecorderTest, RecordIncidentCarriesNoEvents) {
  TraceRecorder recorder(1);
  recorder.RecordIncident(11, "load_shed");
  const std::vector<TraceRecorder::Incident> incidents = recorder.Incidents();
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].trace_id, 11u);
  EXPECT_EQ(incidents[0].reason, "load_shed");
  EXPECT_TRUE(incidents[0].events.empty());
  EXPECT_GT(incidents[0].at_ns, 0u);
}

TEST(FlightRecorderTest, TraceEventsJsonContainsSpansAndIncidents) {
  TraceRecorder recorder(2);
  const uint64_t trace_id = recorder.NewTraceId();
  const PlanKey plan{/*query_sig=*/11, /*estimator_version=*/22,
                     /*planner_fingerprint=*/33};
  {
    TraceRecorder::RequestScope scope(&recorder, 1, trace_id);
    ScopedSpan root("request");
    SetRequestPlanContext(plan);
    { ScopedSpan child("plan"); }
  }
  recorder.DumpFlight(1, trace_id, "deadline_exceeded", plan);

  const std::string json = TraceEventsToJson(recorder);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // Complete ("X") events for both spans, on the bound worker's tid.
  EXPECT_NE(json.find("\"request\""), std::string::npos);
  EXPECT_NE(json.find("\"plan\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
  // Thread-name metadata and the flight-recorder sidecar.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"caqpFlightRecorder\""), std::string::npos);
  EXPECT_NE(json.find("\"deadline_exceeded\""), std::string::npos);
  EXPECT_NE(json.find("\"caqpDroppedSpanEvents\""), std::string::npos);
  // Plan context under its trace keys, on both spans, the incident, and
  // the incident's two ring events.
  const std::string triple =
      "\"plan_sig\":11,\"planner_fp\":33,\"estimator_version\":22";
  size_t found = 0;
  for (size_t at = json.find(triple); at != std::string::npos;
       at = json.find(triple, at + 1)) {
    ++found;
  }
  EXPECT_EQ(found, 5u);
  EXPECT_EQ(json.find("\"planner_fp\":22"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace caqp
