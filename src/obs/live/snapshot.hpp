// TelemetrySnapshotter: periodic sampling of the metrics registry,
// emitted as schema-versioned snapshot JSON while the service runs.
//
// PRs 1-2 made the obs stack post-hoc: metrics/trace/bench JSON exist
// only after the run ends, which is useless for a long-lived serving
// loop. The snapshotter closes that gap without threads or clocks in the
// hot path: the service calls tick() once per completed batch (a virtual
// tick — deterministic, unlike a timer thread), and every `interval`
// ticks the snapshotter samples every counter and gauge, computes rates
// against the previous sample, and writes one snapshot file.
//
// File layout under `dir`:
//   snapshot-<seq % keep>.json   rotating set, bounded disk usage
//   latest.json                  newest snapshot (tmp + atomic name swap,
//                                so a reader never sees a torn file)
//
// Snapshot schema (kSnapshotSchemaVersion = 1; tools/gt_top checks it):
//   { "schema_version": 1, "seq": N, "ts_ms": T, "batches": B,
//     "interval": I,
//     "counters": {name: value}, "gauges": {name: value},
//     "rates": {name: {"per_sec": r, "per_batch": r}},    // counter deltas
//     "histograms": {name: {count, mean, min, max, p50, p95, p99}},
//     "stages": {"<stage>_ms": t, "shares": {stage: frac}},
//     "workers": [{"slot": i, "busy_ms": t, "util": u, "<stage>_ms": t}],
//     "worker_skew": s,                                   // max/mean busy
//     "health": {"state": "ok|stalled", "heartbeats": N, "stalls": N} }
//
// Written through obs::JsonWriter: blocks one member per line, the
// per-name objects inline, and a NaN or infinite gauge as null.
//
// "stages" and "workers" are the WorkerProfiler's host wall-clock busy
// time of the simulator's own threads, not the modeled system: the modeled
// (virtual-time) Fig 12 S/R/K/T + FWP/BWP breakdown is the kernel ledger's
// kernels.json (obs/attrib/kernel_ledger.hpp).
//
// Memory is two samples x the registry size: the rates need only the
// previous sample and the current one. The sampler never allocates into
// the registry, never mutates a metric, and never touches model or kernel
// state — telemetry-armed runs are bit-identical to telemetry-off runs in
// every priced and trained value.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace gt::obs::live {

class StallWatchdog;

inline constexpr int kSnapshotSchemaVersion = 1;

/// One sample: every counter and gauge at a point in time.
struct SnapshotSample {
  std::uint64_t seq = 0;
  double ts_ms = 0.0;        // gt::log clock, shared with the event log
  std::uint64_t batches = 0; // virtual progress coordinate (ticks seen)
  std::vector<std::pair<std::string, std::uint64_t>> counters;  // sorted
  std::vector<std::pair<std::string, double>> gauges;           // sorted
};

/// The two newest samples, previous and current: all a rate needs. The
/// rate math lives here so it is unit-testable without a registry.
class TimeSeriesRing {
 public:
  /// `s` becomes the current sample; the current one becomes previous.
  void push(SnapshotSample s);

  /// The current sample (a default one before the first push).
  const SnapshotSample& newest() const noexcept { return cur_; }

  struct Rate {
    double per_sec = 0.0;    // counter delta / wall seconds
    double per_batch = 0.0;  // counter delta / batch ticks
    bool known = false;      // needs >= 2 samples and the name in both
  };

  /// Derivative of `counter` between the two newest samples. A counter
  /// absent from either sample (registered mid-run) is unknown, not zero.
  Rate rate(std::string_view counter) const;

 private:
  SnapshotSample prev_;
  SnapshotSample cur_;
  int size_ = 0;  // samples held: 0, 1 or 2
};

struct SnapshotterOptions {
  std::string dir;             // output directory (created on demand)
  std::uint64_t interval = 1;  // batches between snapshots (>= 1)
  std::size_t keep = 16;       // rotating snapshot file count (>= 1)
};

class TelemetrySnapshotter {
 public:
  /// Creates `opt.dir` (and parents) if needed. Throws std::runtime_error
  /// when the directory cannot be created.
  TelemetrySnapshotter(MetricsRegistry& registry, SnapshotterOptions opt);

  /// One virtual tick (a completed batch). Samples + emits a snapshot
  /// file every `interval` ticks; returns true when one was emitted.
  bool tick();

  /// Sample + emit unconditionally (final flush, crash path).
  bool emit_now();

  /// Attach the watchdog whose state the "health" section reports.
  void set_watchdog(const StallWatchdog* wd) noexcept { watchdog_ = wd; }

  std::uint64_t snapshots_emitted() const noexcept { return emitted_; }
  std::uint64_t ticks() const noexcept { return ticks_; }
  const TimeSeriesRing& ring() const noexcept { return ring_; }
  const SnapshotterOptions& options() const noexcept { return opt_; }

  /// Render the snapshot for `cur` (already pushed) to `os` — exposed so
  /// tests can validate the JSON without touching the filesystem.
  void write_snapshot(const SnapshotSample& cur, std::ostream& os) const;

 private:
  SnapshotSample capture();
  bool emit(const SnapshotSample& cur);

  MetricsRegistry& registry_;
  SnapshotterOptions opt_;
  TimeSeriesRing ring_;
  const StallWatchdog* watchdog_ = nullptr;
  std::uint64_t ticks_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t emitted_ = 0;
};

}  // namespace gt::obs::live
