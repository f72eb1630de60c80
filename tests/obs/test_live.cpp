// Live telemetry stack (obs/live): structured event log + correlation
// ids, time-series ring + rate math, per-worker stage profiler, stall
// watchdog, snapshotter output, and the crash-flush path.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/live/event_log.hpp"
#include "obs/live/snapshot.hpp"
#include "obs/live/telemetry.hpp"
#include "obs/live/watchdog.hpp"
#include "obs/live/worker_profiler.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "json_checker.hpp"

namespace gt::obs::live {
namespace {

std::string unique_dir(const char* tag) {
  static int counter = 0;
  return ::testing::TempDir() + "gt_live_" + tag + "_" +
         std::to_string(counter++);
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream f(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(f, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

// ---- Correlation ids --------------------------------------------------------

TEST(CorrelationScope, NestsAndRestores) {
  EXPECT_EQ(current_correlation(), 0u);
  {
    CorrelationScope outer(7);
    EXPECT_EQ(current_correlation(), 7u);
    {
      CorrelationScope inner(9);
      EXPECT_EQ(current_correlation(), 9u);
    }
    EXPECT_EQ(current_correlation(), 7u);
  }
  EXPECT_EQ(current_correlation(), 0u);
}

TEST(CorrelationScope, IsThreadLocal) {
  CorrelationScope scope(42);
  std::uint64_t seen = 99;
  std::thread t([&seen] { seen = current_correlation(); });
  t.join();
  EXPECT_EQ(seen, 0u);  // the other thread never installed a cid
  EXPECT_EQ(current_correlation(), 42u);
}

// ---- Event rendering --------------------------------------------------------

TEST(Event, RendersValidJsonWithFieldsAndEscapes) {
  CorrelationScope scope(5);
  Event e(Severity::kWarn, "fault.inject");
  e.msg("quoted \"msg\" with\\slash")
      .field("site", "gpusim.kernel")
      .field("batch", std::uint64_t{6})
      .field("delta", -3.5)
      .field("signed", std::int64_t{-2});
  const std::string line = e.render();
  EXPECT_TRUE(testing::JsonChecker(line).valid()) << line;
  EXPECT_NE(line.find("\"cid\":5"), std::string::npos);
  EXPECT_NE(line.find("\"sev\":\"warn\""), std::string::npos);
  EXPECT_NE(line.find("\"type\":\"fault.inject\""), std::string::npos);
  EXPECT_NE(line.find("\"site\":\"gpusim.kernel\""), std::string::npos);
  EXPECT_NE(line.find("\"batch\":6"), std::string::npos);
  EXPECT_NE(line.find("\"signed\":-2"), std::string::npos);
}

TEST(Severity, ToStringCoversAllLevels) {
  EXPECT_STREQ(to_string(Severity::kDebug), "debug");
  EXPECT_STREQ(to_string(Severity::kInfo), "info");
  EXPECT_STREQ(to_string(Severity::kWarn), "warn");
  EXPECT_STREQ(to_string(Severity::kError), "error");
}

// ---- EventLog ---------------------------------------------------------------

TEST(EventLog, DisarmedEmitIsANoOp) {
  EventLog& log = EventLog::global();
  ASSERT_FALSE(log.armed());
  log.emit(Event(Severity::kInfo, "ignored"));  // must not crash or write
  log.emit(Event(Severity::kInfo, "ignored").msg("still disarmed"));
  EXPECT_FALSE(log.armed());
}

TEST(EventLog, WritesJsonlWithStartStopAndCids) {
  const std::string dir = unique_dir("eventlog");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/events.jsonl";

  EventLog& log = EventLog::global();
  ASSERT_TRUE(log.open(path));
  EXPECT_TRUE(log.armed());
  {
    CorrelationScope scope(3);
    log.emit(Event(Severity::kWarn, "fault.inject").msg("boom"));
    log.emit(Event(Severity::kInfo, "service.retry")
                 .field("attempt", std::uint64_t{1}));
  }
  log.close();
  EXPECT_FALSE(log.armed());

  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 4u);  // start, inject, retry, stop
  for (const std::string& line : lines)
    EXPECT_TRUE(testing::JsonChecker(line).valid()) << line;
  EXPECT_NE(lines[0].find("\"type\":\"telemetry.start\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"cid\":3"), std::string::npos);
  EXPECT_NE(lines[2].find("\"cid\":3"), std::string::npos);
  EXPECT_NE(lines[3].find("\"type\":\"telemetry.stop\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(EventLog, RoutesGtLogLinesWhileArmed) {
  const std::string dir = unique_dir("logsink");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/events.jsonl";
  EventLog& log = EventLog::global();
  ASSERT_TRUE(log.open(path));
  // Emit below the threshold gate (GT_LOG defaults to off in tests): the
  // armed event log installs a sink, and any line reaching log_emit must
  // route through it as a type="log" event.
  gt::detail::log_emit(gt::LogLevel::kInfo, "service up (routed line)");
  log.close();
  // After close the sink is restored: a stray log must not reopen/append.
  gt::detail::log_emit(gt::LogLevel::kInfo, "after close (not routed)");

  const std::string all = read_file(path);
  EXPECT_NE(all.find("\"type\":\"log\""), std::string::npos);
  EXPECT_NE(all.find("routed line"), std::string::npos);
  EXPECT_EQ(all.find("after close"), std::string::npos);
  std::filesystem::remove_all(dir);
}

// ---- TimeSeriesRing ---------------------------------------------------------

SnapshotSample make_sample(std::uint64_t seq, double ts_ms,
                           std::uint64_t batches, std::uint64_t counter_v) {
  SnapshotSample s;
  s.seq = seq;
  s.ts_ms = ts_ms;
  s.batches = batches;
  s.counters = {{"a.count", counter_v}, {"z.other", 2 * counter_v}};
  return s;
}

TEST(TimeSeriesRing, RateFromTwoNewestSamples) {
  TimeSeriesRing ring;
  EXPECT_FALSE(ring.rate("a.count").known);  // empty
  ring.push(make_sample(0, 1000.0, 10, 100));
  EXPECT_FALSE(ring.rate("a.count").known);  // one sample
  ring.push(make_sample(1, 3000.0, 14, 160));
  const auto r = ring.rate("a.count");
  ASSERT_TRUE(r.known);
  EXPECT_DOUBLE_EQ(r.per_sec, 30.0);   // +60 over 2 s
  EXPECT_DOUBLE_EQ(r.per_batch, 15.0); // +60 over 4 batches
  // Rates always use the two NEWEST samples: a third push drops the first.
  ring.push(make_sample(2, 4000.0, 15, 200));
  EXPECT_DOUBLE_EQ(ring.rate("a.count").per_sec, 40.0);
}

TEST(TimeSeriesRing, CounterResetClampsToZeroDelta) {
  TimeSeriesRing ring;
  ring.push(make_sample(0, 0.0, 0, 500));
  ring.push(make_sample(1, 1000.0, 1, 20));  // registry reset mid-run
  const auto r = ring.rate("a.count");
  ASSERT_TRUE(r.known);
  EXPECT_DOUBLE_EQ(r.per_sec, 0.0);
  EXPECT_DOUBLE_EQ(r.per_batch, 0.0);
}

TEST(TimeSeriesRing, CounterAbsentFromEitherSampleIsUnknown) {
  TimeSeriesRing ring;
  SnapshotSample without = make_sample(0, 0.0, 0, 1);
  without.counters = {{"z.other", 1}};
  ring.push(without);
  ring.push(make_sample(1, 1000.0, 1, 2));
  EXPECT_FALSE(ring.rate("a.count").known);  // registered mid-run
  EXPECT_FALSE(ring.rate("never.seen").known);
  EXPECT_TRUE(ring.rate("z.other").known);
}

// ---- WorkerProfiler ---------------------------------------------------------

TEST(WorkerProfiler, StageNamesCoverAllStages) {
  for (std::size_t j = 0; j < kNumStages; ++j)
    EXPECT_STRNE(to_string(static_cast<Stage>(j)), "?");
}

TEST(WorkerProfiler, AccumulatesPerThreadSlots) {
  WorkerProfiler& prof = WorkerProfiler::global();
  prof.reset();
  prof.enable(true);
  prof.add(Stage::kPrepare, 1000);
  prof.add(Stage::kSample, 400);
  std::thread t([&prof] {
    prof.add(Stage::kExecute, 2000);
    prof.add(Stage::kForward, 600);
  });
  t.join();
  prof.enable(false);

  const auto totals = prof.stage_totals();
  EXPECT_EQ(totals[static_cast<std::size_t>(Stage::kPrepare)], 1000u);
  EXPECT_EQ(totals[static_cast<std::size_t>(Stage::kExecute)], 2000u);
  EXPECT_EQ(totals[static_cast<std::size_t>(Stage::kSample)], 400u);
  EXPECT_EQ(totals[static_cast<std::size_t>(Stage::kForward)], 600u);

  // busy = enclosing phases only; fine stages nest inside and must not
  // double-count.
  ASSERT_GE(prof.active_slots(), 2u);
  std::uint64_t busy_sum = 0;
  for (const auto& s : prof.snapshot()) busy_sum += s.busy_ns;
  EXPECT_EQ(busy_sum, 3000u);

  prof.reset();
  EXPECT_EQ(prof.stage_totals()[0], 0u);
  // Registrations survive a reset: the slots are still active.
  EXPECT_GE(prof.active_slots(), 2u);
}

// The stage timer is obs::Span's stage scope (obs/trace.hpp).
TEST(WorkerProfiler, StageTimerNoOpWhenDisabled) {
  WorkerProfiler& prof = WorkerProfiler::global();
  prof.reset();
  prof.enable(false);
  {
    Span t(Stage::kLookup, "K.lookup", "lookup");
  }
  { GT_OBS_STAGE(span, kLookup, "K.lookup", "lookup"); }
  EXPECT_EQ(prof.stage_totals()[static_cast<std::size_t>(Stage::kLookup)],
            0u);
}

TEST(WorkerProfiler, StageTimerRecordsWhenEnabled) {
  WorkerProfiler& prof = WorkerProfiler::global();
  prof.reset();
  prof.enable(true);
  {
    Span t(Stage::kReindex, "R.layer", "reindex");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  prof.enable(false);
  EXPECT_GT(prof.stage_totals()[static_cast<std::size_t>(Stage::kReindex)],
            0u);
  EXPECT_GT(prof.wall_since_enable_ns(), 0u);
  prof.reset();
}

// ---- StallWatchdog ----------------------------------------------------------

TEST(StallWatchdog, DetectsStallAndRecoversOnHeartbeat) {
  StallWatchdog wd(WatchdogOptions{/*stall_ms=*/20, /*poll_ms=*/5});
  wd.heartbeat();
  wd.start();
  // No heartbeats: the monitor must flip to stalled within a bounded wait.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!wd.stalled() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(wd.stalled());
  EXPECT_GE(wd.stalls_detected(), 1u);

  const std::uint64_t beats_before = wd.heartbeats();
  wd.heartbeat();
  EXPECT_FALSE(wd.stalled());  // recovery is immediate on the beat
  EXPECT_EQ(wd.heartbeats(), beats_before + 1);
  wd.stop();
  wd.stop();  // idempotent
}

TEST(StallWatchdog, QuietWhenHeartbeatsKeepComing) {
  StallWatchdog wd(WatchdogOptions{/*stall_ms=*/200, /*poll_ms=*/10});
  wd.start();
  for (int i = 0; i < 10; ++i) {
    wd.heartbeat();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(wd.stalled());
  EXPECT_EQ(wd.stalls_detected(), 0u);
  wd.stop();
}

// ---- TelemetrySnapshotter ---------------------------------------------------

TEST(TelemetrySnapshotter, TicksEmitOnIntervalAndRotateFiles) {
  const std::string dir = unique_dir("snap");
  MetricsRegistry reg;
  reg.counter("work.items").add(5);
  SnapshotterOptions opt;
  opt.dir = dir;
  opt.interval = 2;
  opt.keep = 2;
  TelemetrySnapshotter snap(reg, opt);

  EXPECT_FALSE(snap.tick());  // tick 1: off-interval
  EXPECT_TRUE(snap.tick());   // tick 2: emits seq 0
  reg.counter("work.items").add(3);
  EXPECT_FALSE(snap.tick());
  EXPECT_TRUE(snap.tick());   // seq 1
  EXPECT_TRUE(snap.tick() || snap.emit_now());  // at least one more
  EXPECT_GE(snap.snapshots_emitted(), 3u);
  EXPECT_EQ(snap.ticks(), 5u);

  // keep=2: only two rotating slots plus latest.json ever exist.
  EXPECT_TRUE(std::filesystem::exists(dir + "/snapshot-0.json"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/snapshot-1.json"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/snapshot-2.json"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/latest.json"));

  const std::string latest = read_file(dir + "/latest.json");
  EXPECT_TRUE(testing::JsonChecker(latest).valid()) << latest;
  EXPECT_NE(latest.find("\"schema_version\": 1"), std::string::npos);
  const JsonValue doc = json_parse_or_null(latest);
  EXPECT_EQ(doc.at("counters").number_at("work.items"), 8.0);
  EXPECT_NE(latest.find("\"rates\""), std::string::npos);
  EXPECT_NE(latest.find("\"health\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(TelemetrySnapshotter, ReplacesFilesWholeAndLeavesNoTemporary) {
  // Every emit writes fresh files and swaps latest.json in. Across several
  // rotations the newest slot must equal latest.json byte for byte, each
  // slot must stay valid JSON, and no temporary file may be left behind.
  const std::string dir = unique_dir("snapswap");
  MetricsRegistry reg;
  SnapshotterOptions opt;
  opt.dir = dir;
  opt.keep = 3;
  TelemetrySnapshotter snap(reg, opt);
  for (int i = 0; i < 7; ++i) {
    reg.counter("work.items").add(1);
    ASSERT_TRUE(snap.emit_now());
    const std::string latest = read_file(dir + "/latest.json");
    EXPECT_EQ(read_file(dir + "/snapshot-" + std::to_string(i % 3) + ".json"),
              latest);
    const JsonValue doc = json_parse_or_null(latest);
    EXPECT_EQ(doc.at("counters").number_at("work.items"), i + 1);
    EXPECT_FALSE(std::filesystem::exists(dir + "/latest.json.tmp"));
  }
  for (int s = 0; s < 3; ++s) {
    const std::string slot =
        read_file(dir + "/snapshot-" + std::to_string(s) + ".json");
    EXPECT_TRUE(testing::JsonChecker(slot).valid()) << slot;
  }
  std::filesystem::remove_all(dir);
}

TEST(TelemetrySnapshotter, WriteSnapshotIsValidJsonWithRates) {
  const std::string dir = unique_dir("snapjson");
  MetricsRegistry reg;
  reg.counter("q.depth").add(4);
  reg.gauge("p99").set(123.5);
  reg.histogram("lat_us", {1.0, 10.0}).observe(3.0);
  SnapshotterOptions opt;
  opt.dir = dir;
  TelemetrySnapshotter snap(reg, opt);
  ASSERT_TRUE(snap.tick());
  reg.counter("q.depth").add(6);
  ASSERT_TRUE(snap.tick());

  std::ostringstream os;
  snap.write_snapshot(snap.ring().newest(), os);
  const std::string json = os.str();
  EXPECT_TRUE(testing::JsonChecker(json).valid()) << json;
  const JsonValue doc = json_parse_or_null(json);
  EXPECT_TRUE(doc.at("rates").at("q.depth").at("per_sec").is_number());
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"lat_us\""), std::string::npos);
  EXPECT_NE(json.find("\"stages\""), std::string::npos);
  EXPECT_NE(json.find("\"shares\""), std::string::npos);
  EXPECT_NE(json.find("\"worker_skew\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

// ---- LiveTelemetry / crash flush --------------------------------------------

TEST(LiveTelemetry, DisabledOptionsNeverStart) {
  LiveTelemetry t(TelemetryOptions{});
  t.start();
  EXPECT_FALSE(t.started());
  t.on_batch();  // must be safe unstarted
  t.stop();
}

TEST(LiveTelemetry, StartOnBatchStopProducesArtifacts) {
  const std::string dir = unique_dir("lifecycle");
  TelemetryOptions opt;
  opt.out_dir = dir;
  opt.interval = 1;
  {
    LiveTelemetry t(opt);
    t.start();
    ASSERT_TRUE(t.started());
    metrics().counter("telemetry_test.batches").add();
    t.on_batch();
    t.on_batch();
    // Destructor stops: final snapshot + clean event-log close.
  }
  EXPECT_TRUE(std::filesystem::exists(dir + "/latest.json"));
  const auto lines = read_lines(dir + "/events.jsonl");
  ASSERT_GE(lines.size(), 2u);
  EXPECT_NE(lines.front().find("telemetry.start"), std::string::npos);
  EXPECT_NE(lines.back().find("telemetry.stop"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(LiveTelemetry, CrashFlushWritesPostMortemArtifacts) {
  const std::string dir = unique_dir("crash");
  TelemetryOptions opt;
  opt.out_dir = dir;
  LiveTelemetry t(opt);
  t.start();
  t.on_batch();
  t.crash_flush("unit test unwind");
  EXPECT_TRUE(std::filesystem::exists(dir + "/crash-metrics.json"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/crash-trace.json"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/latest.json"));
  const std::string metrics_json = read_file(dir + "/crash-metrics.json");
  EXPECT_TRUE(testing::JsonChecker(metrics_json).valid());
  t.stop();
  const std::string events = read_file(dir + "/events.jsonl");
  EXPECT_NE(events.find("\"type\":\"crash.flush\""), std::string::npos);
  EXPECT_NE(events.find("unit test unwind"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(LiveTelemetryDeathTest, TerminateHandlerFlushesBeforeAbort) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Fixed name: the threadsafe death-test child re-runs the binary, so the
  // directory must be computable identically in both processes.
  const std::string dir = ::testing::TempDir() + "gt_live_terminate_out";
  std::filesystem::remove_all(dir);
  EXPECT_DEATH(
      {
        TelemetryOptions opt;
        opt.out_dir = dir;
        LiveTelemetry t(opt);
        t.start();
        arm_crash_flush();
        t.on_batch();
        std::terminate();
      },
      "");
  // The dying child shares the filesystem: its terminate handler must have
  // flushed the post-mortem artifacts before aborting.
  EXPECT_TRUE(std::filesystem::exists(dir + "/crash-metrics.json"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/crash-trace.json"));
  const std::string events = read_file(dir + "/events.jsonl");
  EXPECT_NE(events.find("\"type\":\"crash.flush\""), std::string::npos);
  EXPECT_NE(events.find("terminate"), std::string::npos);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gt::obs::live
