// LiveTelemetry: one handle that arms the whole live-observability stack
// for a run — structured event log, telemetry snapshotter, per-worker
// stage profiler, stall watchdog, and the crash-safe flush path.
//
// Output layout under `opt.out_dir`:
//   events.jsonl                 structured event log (event_log.hpp)
//   snapshot-<k>.json            rotating snapshot set (snapshot.hpp)
//   latest.json                  newest snapshot, atomically replaced
//   crash-metrics.json           written only by the crash flush path
//   crash-trace.json             written only by the crash flush path
//
// Lifecycle: construct with options (service_cli fills them from its
// --telemetry-* flags or the GT_TELEMETRY_* variables; the library reads
// no environment), start() once before the serving loop, call on_batch()
// per completed batch (heartbeat + virtual snapshot tick), stop() after
// the loop (final snapshot + clean close; also run by the destructor). arm_crash_flush() chains a
// std::terminate handler so that an uncaught exception or abort still
// leaves a final snapshot, the flushed event log, and partial
// trace/metrics dumps on disk — the post-mortem equivalent of the
// normal-exit artifacts.
//
// None of this touches model parameters or priced kernel stats: a
// telemetry-armed run is bit-identical to a telemetry-off run in every
// trained and priced value (asserted by test_service_telemetry).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "obs/live/snapshot.hpp"
#include "obs/live/watchdog.hpp"
#include "obs/metrics.hpp"

namespace gt::obs::live {

struct TelemetryOptions {
  std::string out_dir;                 // empty = telemetry disabled
  std::uint64_t interval = 1;          // batches per snapshot
  std::uint64_t watchdog_stall_ms = 0; // 0 = watchdog off

  bool enabled() const noexcept { return !out_dir.empty(); }
};

class LiveTelemetry {
 public:
  explicit LiveTelemetry(TelemetryOptions opt,
                         MetricsRegistry& registry = metrics());
  ~LiveTelemetry();

  LiveTelemetry(const LiveTelemetry&) = delete;
  LiveTelemetry& operator=(const LiveTelemetry&) = delete;

  /// Open the event log, enable the worker profiler, start the watchdog
  /// (when configured) and register this instance for crash flushing.
  /// No-op when options().enabled() is false or already started.
  void start();

  /// Final snapshot, watchdog shutdown, event-log close. Idempotent.
  void stop();

  /// Per-completed-batch hook: watchdog heartbeat + snapshot tick.
  void on_batch();

  /// Best-effort flush for abnormal termination: final snapshot, event
  /// log flush, partial metrics + trace dumps under out_dir. Safe to call
  /// from a terminate handler or an unwind path; never throws.
  void crash_flush(const char* why) noexcept;

  bool started() const noexcept { return started_; }
  const TelemetryOptions& options() const noexcept { return opt_; }
  TelemetrySnapshotter* snapshotter() noexcept { return snapshotter_.get(); }
  StallWatchdog* watchdog() noexcept { return watchdog_.get(); }

 private:
  TelemetryOptions opt_;
  MetricsRegistry& registry_;
  std::unique_ptr<TelemetrySnapshotter> snapshotter_;
  std::unique_ptr<StallWatchdog> watchdog_;
  bool started_ = false;
};

/// Install a chained std::terminate handler that crash-flushes the
/// currently started LiveTelemetry (if any) before delegating to the
/// previous handler. Idempotent; cheap enough to call unconditionally.
void arm_crash_flush();

}  // namespace gt::obs::live
