#include "obs/live/telemetry.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <string>

#include "obs/live/event_log.hpp"
#include "obs/live/worker_profiler.hpp"
#include "obs/trace.hpp"

namespace gt::obs::live {

namespace {

// The instance the crash path flushes. One live telemetry stack per
// process is the supported shape (the event log is a singleton anyway).
std::atomic<LiveTelemetry*> g_active{nullptr};

std::terminate_handler g_prev_terminate = nullptr;
std::atomic<bool> g_crash_armed{false};
std::atomic<bool> g_crash_flushing{false};

void telemetry_terminate_handler() {
  // Reentrancy latch: a second terminate (e.g. from inside the flush)
  // falls straight through to the previous handler.
  if (!g_crash_flushing.exchange(true)) {
    LiveTelemetry* t = g_active.load(std::memory_order_acquire);
    if (t != nullptr) t->crash_flush("terminate");
  }
  if (g_prev_terminate != nullptr) g_prev_terminate();
  std::abort();
}

}  // namespace

LiveTelemetry::LiveTelemetry(TelemetryOptions opt, MetricsRegistry& registry)
    : opt_(std::move(opt)), registry_(registry) {}

LiveTelemetry::~LiveTelemetry() { stop(); }

void LiveTelemetry::start() {
  if (started_ || !opt_.enabled()) return;
  // Snapshotter first: it creates out_dir, which the event log needs.
  SnapshotterOptions sopt;
  sopt.dir = opt_.out_dir;
  sopt.interval = opt_.interval;
  snapshotter_ = std::make_unique<TelemetrySnapshotter>(registry_, sopt);
  EventLog::global().open(opt_.out_dir + "/events.jsonl");
  WorkerProfiler::global().reset();
  WorkerProfiler::global().enable(true);
  if (opt_.watchdog_stall_ms > 0) {
    watchdog_ = std::make_unique<StallWatchdog>(
        WatchdogOptions{opt_.watchdog_stall_ms, 0});
    snapshotter_->set_watchdog(watchdog_.get());
    watchdog_->start();
  }
  started_ = true;
  g_active.store(this, std::memory_order_release);
}

void LiveTelemetry::stop() {
  if (!started_) return;
  g_active.store(nullptr, std::memory_order_release);
  if (watchdog_) watchdog_->stop();
  if (snapshotter_) snapshotter_->emit_now();
  WorkerProfiler::global().enable(false);
  EventLog::global().close();
  started_ = false;
}

void LiveTelemetry::on_batch() {
  if (!started_) return;
  if (watchdog_) watchdog_->heartbeat();
  if (snapshotter_) snapshotter_->tick();
}

void LiveTelemetry::crash_flush(const char* why) noexcept {
  try {
    if (EventLog::global().armed()) {
      Event ev(Severity::kError, "crash.flush");
      ev.msg(why);
      EventLog::global().emit(ev);
      EventLog::global().flush();
    }
    if (snapshotter_) snapshotter_->emit_now();
    // Partial post-mortem dumps: same formats as the normal-exit
    // artifacts, distinct names so a crash never clobbers a good run's
    // files.
    registry_.write_json_file(opt_.out_dir + "/crash-metrics.json");
    Tracer::global().write_chrome_trace_file(opt_.out_dir +
                                             "/crash-trace.json");
  } catch (...) {
    // Crash path: swallow everything; the previous terminate handler
    // still runs.
  }
}

void arm_crash_flush() {
  if (g_crash_armed.exchange(true)) return;
  g_prev_terminate = std::set_terminate(&telemetry_terminate_handler);
}

}  // namespace gt::obs::live
