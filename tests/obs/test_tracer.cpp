#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json_checker.hpp"
#include "obs/live/worker_profiler.hpp"

namespace gt::obs {
namespace {

using testing::JsonChecker;

// Each TEST uses the global tracer; reset it to a known state first.
struct TracerEnv {
  TracerEnv() {
    Tracer::global().clear();
    Tracer::global().enable(true);
  }
  ~TracerEnv() {
    Tracer::global().enable(false);
    Tracer::global().clear();
  }
};

TEST(Tracer, DisabledRecordsNothing) {
  Tracer::global().clear();
  Tracer::global().enable(false);
  {
    GT_OBS_SCOPE_N(hidden, "should.not.appear", "test");
    Span s("also.not", "test");
    s.arg("k", std::int64_t{1});
    EXPECT_FALSE(s.active());
  }
  EXPECT_EQ(Tracer::global().event_count(), 0u);
}

// The tests that assert recorded events skip in a GT_OBS_DISABLE build,
// where the span macros compile to an empty object.
#ifdef GT_OBS_DISABLE
#define SKIP_WITHOUT_SPANS() \
  GTEST_SKIP() << "GT_OBS_DISABLE compiles the span macros away"
#else
#define SKIP_WITHOUT_SPANS() (void)0
#endif

TEST(Tracer, SpanNestingEmitsContainedIntervals) {
  SKIP_WITHOUT_SPANS();
  TracerEnv env;
  {
    GT_OBS_SCOPE_N(outer, "outer", "test");
    {
      GT_OBS_SCOPE_N(inner, "inner", "test");
      EXPECT_TRUE(inner.active());
    }
  }
  auto events = Tracer::global().snapshot();
  ASSERT_EQ(events.size(), 2u);
  auto find = [&](const char* name) {
    return *std::find_if(events.begin(), events.end(),
                         [&](const TraceEvent& e) { return e.name == name; });
  };
  const TraceEvent outer = find("outer"), inner = find("inner");
  EXPECT_EQ(outer.pid, kWallPid);
  EXPECT_EQ(outer.tid, inner.tid);  // same thread
  // Inner interval is contained in the outer one.
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us);
}

TEST(Tracer, SpanArgsAreRenderedAsJsonMembers) {
  TracerEnv env;
  {
    Span s("with.args", "test");
    s.arg("n", std::int64_t{42});
    s.arg("ratio", 0.5);
    s.arg("label", std::string_view("he\"llo"));
  }
  auto events = Tracer::global().snapshot();
  ASSERT_EQ(events.size(), 1u);
  const std::string wrapped = "{" + events[0].args_json + "}";
  EXPECT_TRUE(JsonChecker(wrapped).valid()) << wrapped;
  EXPECT_NE(wrapped.find("\"n\":42"), std::string::npos);
  EXPECT_NE(wrapped.find("\"label\":\"he\\\"llo\""), std::string::npos);
}

TEST(Tracer, MergesEventsAcrossThreads) {
  SKIP_WITHOUT_SPANS();
  TracerEnv env;
  constexpr int kThreads = 4, kSpansPerThread = 25;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([] {
      // An unbraced loop body: the macro must stay one declaration.
      for (int i = 0; i < kSpansPerThread; ++i)
        GT_OBS_SCOPE_N(span, "worker.span", "test");
    });
  for (auto& w : workers) w.join();
  auto events = Tracer::global().snapshot();
  EXPECT_EQ(events.size(),
            static_cast<std::size_t>(kThreads * kSpansPerThread));
  std::vector<std::uint32_t> tids;
  for (const auto& e : events) tids.push_back(e.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
}

TEST(Tracer, VirtualClockLaysBatchesBackToBack) {
  TracerEnv env;
  Tracer& t = Tracer::global();
  const double a = t.advance_virtual(100.0);
  const double b = t.advance_virtual(50.0);
  const double c = t.advance_virtual(25.0);
  EXPECT_DOUBLE_EQ(b, a + 100.0);
  EXPECT_DOUBLE_EQ(c, b + 50.0);
}

TEST(Tracer, ChromeExportIsValidJson) {
  TracerEnv env;
  Tracer& t = Tracer::global();
  t.set_sim_thread_name(kSimTidGpu, "gpu");
  {
    Span s("wall.span", "test");
    s.arg("bytes", std::int64_t{1024});
  }
  t.emit({.name = "K.kernel",
          .cat = "kernel",
          .ts_us = 10.0,
          .dur_us = 5.0,
          .pid = kSimPid,
          .tid = kSimTidGpu,
          .args_json = "\"flops\":123"});
  std::ostringstream os;
  t.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"wall.span\""), std::string::npos);
  EXPECT_NE(json.find("\"K.kernel\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);  // "M" metadata
}

TEST(Tracer, ClearDropsEventsAndResetsVirtualClock) {
  SKIP_WITHOUT_SPANS();
  TracerEnv env;
  Tracer& t = Tracer::global();
  { GT_OBS_SCOPE_N(span, "ephemeral", "test"); }
  t.advance_virtual(77.0);
  EXPECT_GT(t.event_count(), 0u);
  t.clear();
  EXPECT_EQ(t.event_count(), 0u);
  EXPECT_DOUBLE_EQ(t.advance_virtual(1.0), 0.0);
}

// One clock pair per stage: the profiler's added nanoseconds, the trace
// event's duration and stop()'s return value are the same measurement.
TEST(Tracer, StageScopeHandsOneDurationToProfilerTraceAndCaller) {
#ifdef GT_OBS_DISABLE
  GTEST_SKIP() << "GT_OBS_DISABLE compiles the span macros away";
#else
  TracerEnv env;
  live::WorkerProfiler& prof = live::WorkerProfiler::global();
  prof.reset();
  prof.enable(true);
  double stopped = 0.0;
  {
    GT_OBS_STAGE(scope, kReindex, "R.layer", "reindex");
    EXPECT_TRUE(scope.active());
    scope.arg("layer", std::int64_t{1});
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    stopped = scope.stop();
    EXPECT_EQ(scope.stop(), 0.0);  // the first stop() ended the scope
  }
  prof.enable(false);
  const std::uint64_t ns =
      prof.stage_totals()[static_cast<std::size_t>(live::Stage::kReindex)];
  prof.reset();

  const auto events = Tracer::global().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "R.layer");
  EXPECT_EQ(events[0].args_json, "\"layer\":1");
  EXPECT_GE(events[0].ts_us, 0.0);
  EXPECT_GE(stopped, 200.0);
  EXPECT_EQ(events[0].dur_us, stopped);
  EXPECT_EQ(static_cast<double>(ns) / 1e3, stopped);
#endif
}

}  // namespace
}  // namespace gt::obs
