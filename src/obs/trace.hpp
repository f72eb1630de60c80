// Service-wide span tracing with Chrome trace-event export, and the one
// host-time measurement of a pipeline stage.
//
// Two clocks coexist in this reproduction, and the tracer records both:
//  * wall-clock spans (RAII `Span` guards) measure the host code that
//    actually runs — preprocessing executors, service batches — on
//    per-thread buffers so hot paths never contend on a shared lock;
//  * virtual-clock events place *simulated* work (the discrete-event
//    preprocessing schedule, gpusim kernel latencies) on a shared
//    simulated timeline, so one export shows a batch's S/R/K/T tasks
//    overlapping FWP/BWP exactly like the paper's Fig 20.
//
// A Span that carries a live::Stage is a *stage scope*: it reads the clock
// once at each end and hands that one duration to the calling thread's
// WorkerProfiler slot (when the profiler is armed), to the trace (when
// tracing) and to its caller through stop(). Host time per stage thus has
// one definition, and the profiler and the trace cannot disagree.
//
// The export is Chrome trace-event JSON ("X" complete events plus "M"
// thread-name metadata), loadable in chrome://tracing or Perfetto. It is
// written through obs::JsonWriter one event per line, and streamed: the
// writer hands each event to the output before rendering the next.
//
// Cost model: a Span without a stage is one relaxed atomic load while
// tracing is off; a stage scope also reads steady_clock twice. Defining
// GT_OBS_DISABLE compiles the GT_OBS_SCOPE_N and GT_OBS_STAGE sites to an
// empty object. Framework's two phase scopes are plain Spans, so the
// reports' host_prepare_us / host_execute_us stay filled in that build.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/live/worker_profiler.hpp"

namespace gt::obs {

/// Process lanes in the exported trace: real threads vs simulated time.
inline constexpr std::uint32_t kWallPid = 1;
inline constexpr std::uint32_t kSimPid = 2;

/// Conventional tids on the simulated (kSimPid) timeline. CPU lanes are
/// 0..N; these sit above any plausible core count.
inline constexpr std::uint32_t kSimTidPcie = 90;
inline constexpr std::uint32_t kSimTidGpu = 99;

struct TraceEvent {
  std::string name;
  std::string cat;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::uint32_t pid = kWallPid;
  std::uint32_t tid = 0;
  /// Pre-rendered JSON object members, no braces (`"k":1,"s":"v"`), as
  /// JsonWriter::members() builds them.
  std::string args_json;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The process-wide tracer (leaked singleton: safe from static dtors).
  static Tracer& global();

  void enable(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Append an event to the calling thread's buffer. `e.tid == 0` on the
  /// wall pid is replaced with the thread's registered id.
  void emit(TraceEvent e);

  /// Reserve `dur_us` on the simulated timeline; returns the offset where
  /// the reservation starts. Consecutive batches lay out back to back.
  double advance_virtual(double dur_us);

  /// Name a simulated-timeline lane ("cpu0", "pcie", "gpu"). Idempotent.
  void set_sim_thread_name(std::uint32_t tid, std::string name);

  std::size_t event_count() const;
  /// Merged copy of all per-thread buffers, for tests and exporters.
  std::vector<TraceEvent> snapshot() const;

  /// Chrome trace-event JSON: {"traceEvents":[...]}.
  void write_chrome_trace(std::ostream& os) const;
  /// Returns false if the file could not be opened.
  bool write_chrome_trace_file(const std::string& path) const;

  /// Drop all recorded events (buffers stay registered). Virtual clock
  /// resets to zero.
  void clear();

 private:
  friend class Span;  // stamps events against epoch_

  struct ThreadBuffer {
    mutable std::mutex mu;  // owner appends; exporters snapshot
    std::vector<TraceEvent> events;
    std::uint32_t tid = 0;
  };

  ThreadBuffer& local_buffer();

  // Origin of wall-clock timestamps. Every Span consults the tracer before
  // reading its start time, so no span starts before the epoch.
  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::atomic<bool> enabled_{false};
  std::atomic<double> virtual_now_us_{0.0};

  mutable std::mutex registry_mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::vector<std::pair<std::uint32_t, std::string>> sim_thread_names_;
  std::uint32_t next_tid_ = 1;
};

/// RAII wall-clock span. A span without a stage captures the enabled flag
/// at construction and, while tracing is off, is one atomic load. A stage
/// scope is always timed (see the file comment).
class Span {
 public:
  Span(const char* name, const char* cat) : name_(name), cat_(cat) {
    Tracer& t = Tracer::global();
    if (t.enabled()) begin(&t);
  }
  Span(live::Stage stage, const char* name, const char* cat)
      : name_(name), cat_(cat), stage_(stage), staged_(true) {
    Tracer& t = Tracer::global();
    begin(t.enabled() ? &t : nullptr);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (timing_) stop();
  }

  /// True while the span will emit a trace event.
  bool active() const noexcept { return tracer_ != nullptr; }

  /// End the span now: the one duration goes to the profiler (stage
  /// scopes, profiler armed) and the trace (tracing on), and is returned
  /// in microseconds. Returns 0 on later calls, and for a span without a
  /// stage that is not tracing.
  double stop();

  /// Attach args (no-ops when inactive).
  void arg(const char* key, std::int64_t v);
  void arg(const char* key, double v);
  void arg(const char* key, std::string_view v);

 private:
  void begin(Tracer* t) noexcept {
    tracer_ = t;
    timing_ = true;
    start_ = std::chrono::steady_clock::now();
  }

  Tracer* tracer_ = nullptr;
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  live::Stage stage_ = live::Stage::kPrepare;
  bool staged_ = false;
  bool timing_ = false;
  std::chrono::steady_clock::time_point start_{};
  std::string args_;
};

/// Stand-in for Span when GT_OBS_DISABLE is defined: named spans keep
/// compiling (`span.arg(...)`) while the optimizer deletes everything.
struct NullSpan {
  constexpr bool active() const noexcept { return false; }
  template <typename T>
  constexpr void arg(const char*, T&&) const noexcept {}
};

}  // namespace gt::obs

// Scoped-span macros: under GT_OBS_DISABLE each expands to one empty
// declaration (so it also works as an unbraced loop body), which a
// latency-critical build uses to prove zero instrumentation cost.
#ifndef GT_OBS_DISABLE
#define GT_OBS_SCOPE_N(var, name, cat) ::gt::obs::Span var(name, cat)
#define GT_OBS_STAGE(var, stage, name, cat) \
  ::gt::obs::Span var(::gt::obs::live::Stage::stage, name, cat)
#else
#define GT_OBS_SCOPE_N(var, name, cat) [[maybe_unused]] ::gt::obs::NullSpan var
#define GT_OBS_STAGE(var, stage, name, cat) \
  [[maybe_unused]] ::gt::obs::NullSpan var
#endif
