// Structured event log: a JSONL sink for the live serving loop.
//
// Post-hoc traces (obs/trace.hpp) answer "where did the time go"; the
// event log answers "what happened, in what causal order, while the
// service was up". Every event is one JSON object on its own line —
// severity, monotonic timestamp (the gt::log clock, so free-text logs and
// structured events agree), small thread id, and a correlation id — and
// the file is flushed after every line, so a crash loses at most the
// event being written.
//
// Correlation ids thread a batch's whole causal chain through the stack:
// GnnService installs a CorrelationScope (cid = batch_index + 1, 0 = none)
// around every attempt of a batch — the pool-side preparation, the
// execute, each retry — so the fault-injection event, the retry events,
// and the eventual degradation of one batch all carry the same cid and
// the chain is a single grep:
//
//   $ grep '"cid":7' telemetry/events.jsonl
//
// Line schema (schema_version 1, stamped in the telemetry.start event):
//
//   {"ts_ms":12.345,"tid":3,"cid":7,"sev":"warn","type":"fault.inject",
//    "msg":"...","fields":{"site":"gpusim.kernel","batch":6}}
//
// `fields` is optional; values are numbers or strings. Event types in use:
// telemetry.start/stop, log (routed gt::log lines), fault.inject,
// service.retry, service.degraded, service.oom, service.epoch,
// gpusim.oom, watchdog.stall, watchdog.recovered, crash.flush,
// telemetry.snapshot.
//
// With no log armed (every run that never asked for telemetry) emit() is
// one relaxed atomic load — cheap enough to leave call sites unguarded.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>

namespace gt::obs::live {

inline constexpr int kEventLogSchemaVersion = 1;

enum class Severity : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };
const char* to_string(Severity sev);

/// Ambient correlation id of the calling thread (0 = none).
std::uint64_t current_correlation() noexcept;

/// RAII: installs `cid` as the thread's correlation id; restores the
/// previous value on destruction (nesting safe).
class CorrelationScope {
 public:
  explicit CorrelationScope(std::uint64_t cid) noexcept;
  ~CorrelationScope();
  CorrelationScope(const CorrelationScope&) = delete;
  CorrelationScope& operator=(const CorrelationScope&) = delete;

 private:
  std::uint64_t saved_;
};

/// One event under construction. Builder-style: severity and type are
/// fixed at construction; message and typed fields chain. Each field is
/// rendered eagerly onto a brace-less member list
/// (obs::JsonWriter::members) and the message is kept raw; render()
/// writes the line in the writer's compact style and escapes the message.
/// A discarded event on a disarmed log costs only the string appends.
class Event {
 public:
  Event(Severity sev, std::string_view type);

  Event& msg(std::string_view m);
  Event& field(const char* key, std::int64_t v);
  Event& field(const char* key, std::uint64_t v);
  Event& field(const char* key, double v);
  Event& field(const char* key, std::string_view v);

  Severity severity() const noexcept { return sev_; }
  /// Render the full JSONL line (no trailing newline); stamps ts/tid/cid
  /// at call time.
  std::string render() const;

 private:
  Severity sev_;
  std::string type_;
  std::string msg_;
  std::string fields_;  // rendered members `"k":v,...`, no braces
};

class EventLog {
 public:
  EventLog() = default;
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// The process-wide event log (leaked singleton, like Tracer/Metrics).
  static EventLog& global();

  /// Arm the log: open (truncate) `path`, write the telemetry.start
  /// header event, and route gt::log lines through the sink. False on IO
  /// failure (the log stays disarmed).
  bool open(const std::string& path);

  /// Write telemetry.stop, flush, close, restore the stderr log path.
  void close();

  bool armed() const noexcept {
    return armed_.load(std::memory_order_acquire);
  }

  /// Append one event line (fflushed). No-op unless armed.
  void emit(const Event& e);

  void flush();

  std::uint64_t emitted() const;
  std::string path() const;

 private:
  void write_line(const std::string& line);  // caller holds mu_

  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;
  std::FILE* file_ = nullptr;
  std::string path_;
  std::uint64_t emitted_ = 0;
};

}  // namespace gt::obs::live
