// Per-worker stage profiler: lock-free wall-clock accumulation of where
// each thread's time goes, by pipeline stage.
//
// The paper's service-wide scheduling argument (Fig 12) needs stage-level
// utilization *while the workload runs*: which workers are busy, in which
// of the S/R/K/T/FWP/BWP stages, and how skewed the load is across them.
// Each thread owns one of a fixed set of accumulation slots (assigned on
// first use, never freed); recording a stage duration is two relaxed
// atomic adds on the thread's own slot — no locks, no contention, and no
// effect on any priced or trained value, so telemetry-armed runs stay
// bit-identical to telemetry-off runs.
//
// Slots are merged at snapshot/epoch boundaries: the TelemetrySnapshotter
// reads every active slot, computes per-worker busy time, utilization
// (busy / wall since enable) and skew (max busy / mean busy), and exposes
// the aggregates as gauges plus a per-worker array in the snapshot JSON.
//
// Stage time arrives through obs::Span (obs/trace.hpp): a stage scope
// measures its duration once and adds it here while the profiler is armed,
// so the profiler, the trace and RunReport's host fields read the same
// clock pair. Disarmed (the default), recording costs one relaxed load.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

namespace gt::obs::live {

enum class Stage : int {
  kPrepare = 0,  // whole prepare_batch (preprocessing) phase
  kExecute,      // whole execute_prepared (device compute + SGD) phase
  kSample,       // S — neighbor sampling
  kReindex,      // R — per-layer reindexing
  kLookup,       // K — embedding gather
  kTransfer,     // T — host-to-device upload (session open)
  kForward,      // FWP kernel issue
  kBackward,     // BWP kernel issue
};
inline constexpr std::size_t kNumStages = 8;

const char* to_string(Stage s);

class WorkerProfiler {
 public:
  static constexpr std::size_t kMaxSlots = 64;

  WorkerProfiler() = default;
  WorkerProfiler(const WorkerProfiler&) = delete;
  WorkerProfiler& operator=(const WorkerProfiler&) = delete;

  /// The process-wide profiler (leaked singleton).
  static WorkerProfiler& global();

  /// Arm/disarm. Arming stamps the epoch for utilization math; disarming
  /// leaves accumulated values readable.
  void enable(bool on) noexcept;
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Add `ns` of stage time to the calling thread's slot. Callers should
  /// gate on enabled() (obs::Span does).
  void add(Stage s, std::uint64_t ns) noexcept;

  /// Wall nanoseconds since the last enable(true) (0 if never enabled).
  std::uint64_t wall_since_enable_ns() const noexcept;

  struct SlotSnapshot {
    std::uint32_t slot = 0;  // stable per-thread index
    std::array<std::uint64_t, kNumStages> stage_ns{};
    std::uint64_t busy_ns = 0;  // sum of the *phase* stages (prepare+execute)
  };

  /// Merged copy of every slot that recorded anything. Slot order is the
  /// thread-registration order, so repeated snapshots line up.
  std::vector<SlotSnapshot> snapshot() const;

  /// Sum of each stage across all slots.
  std::array<std::uint64_t, kNumStages> stage_totals() const;

  std::size_t active_slots() const;

  /// Zero every slot (registrations survive) and restamp the epoch.
  void reset() noexcept;

 private:
  struct Slot {
    std::array<std::atomic<std::uint64_t>, kNumStages> ns{};
    std::atomic<bool> used{false};
  };

  Slot& local_slot() noexcept;

  std::array<Slot, kMaxSlots> slots_{};
  std::atomic<std::uint32_t> next_{0};
  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> epoch_ns_{0};  // steady_clock at enable
};

}  // namespace gt::obs::live
