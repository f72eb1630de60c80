#include "obs/live/event_log.hpp"

#include <cinttypes>

#include "obs/trace.hpp"  // json_escape
#include "util/log.hpp"

namespace gt::obs::live {

namespace {

thread_local std::uint64_t t_correlation = 0;

void append_number(std::string& out, double v) {
  char num[48];
  std::snprintf(num, sizeof num, "%.6g", v);
  out += num;
}

/// gt::log sink: free-text lines become type="log" events so both streams
/// share the clock, thread ids, and correlation ids.
void log_sink_adapter(LogLevel level, std::string_view msg) {
  const Severity sev = level == LogLevel::kDebug  ? Severity::kDebug
                       : level == LogLevel::kInfo ? Severity::kInfo
                                                  : Severity::kWarn;
  EventLog::global().emit(Event(sev, "log").msg(msg));
}

}  // namespace

const char* to_string(Severity sev) {
  switch (sev) {
    case Severity::kDebug: return "debug";
    case Severity::kInfo:  return "info";
    case Severity::kWarn:  return "warn";
    case Severity::kError: return "error";
  }
  return "?";
}

std::uint64_t current_correlation() noexcept { return t_correlation; }

CorrelationScope::CorrelationScope(std::uint64_t cid) noexcept
    : saved_(t_correlation) {
  t_correlation = cid;
}

CorrelationScope::~CorrelationScope() { t_correlation = saved_; }

// ---- Event ------------------------------------------------------------------

Event::Event(Severity sev, std::string_view type)
    : sev_(sev), type_(type) {}

Event& Event::msg(std::string_view m) {
  msg_.clear();
  json_escape(m, msg_);
  return *this;
}

Event& Event::field(const char* key, std::int64_t v) {
  if (!fields_.empty()) fields_ += ',';
  fields_ += '"';
  json_escape(key, fields_);
  fields_ += "\":";
  fields_ += std::to_string(v);
  return *this;
}

Event& Event::field(const char* key, std::uint64_t v) {
  if (!fields_.empty()) fields_ += ',';
  fields_ += '"';
  json_escape(key, fields_);
  fields_ += "\":";
  fields_ += std::to_string(v);
  return *this;
}

Event& Event::field(const char* key, double v) {
  if (!fields_.empty()) fields_ += ',';
  fields_ += '"';
  json_escape(key, fields_);
  fields_ += "\":";
  append_number(fields_, v);
  return *this;
}

Event& Event::field(const char* key, std::string_view v) {
  if (!fields_.empty()) fields_ += ',';
  fields_ += '"';
  json_escape(key, fields_);
  fields_ += "\":\"";
  json_escape(v, fields_);
  fields_ += '"';
  return *this;
}

std::string Event::render() const {
  std::string line;
  line.reserve(96 + msg_.size() + fields_.size());
  char head[96];
  std::snprintf(head, sizeof head,
                "{\"ts_ms\":%.3f,\"tid\":%u,\"cid\":%" PRIu64 ",\"sev\":\"%s\"",
                log_uptime_ms(), log_thread_index(), t_correlation,
                to_string(sev_));
  line += head;
  line += ",\"type\":\"";
  json_escape(type_, line);
  line += '"';
  if (!msg_.empty()) {
    line += ",\"msg\":\"";
    line += msg_;  // pre-escaped
    line += '"';
  }
  if (!fields_.empty()) {
    line += ",\"fields\":{";
    line += fields_;
    line += '}';
  }
  line += '}';
  return line;
}

// ---- EventLog ---------------------------------------------------------------

EventLog& EventLog::global() {
  // Leaked: instrumented code (fault checks, logs) may run during static
  // destruction.
  static EventLog* log = new EventLog();
  return *log;
}

bool EventLog::open(const std::string& path) {
  std::lock_guard lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  // Unlink rather than truncate an old log: ext4 writes a file truncated to
  // zero out to disk when it is closed, a disk write per service run.
  std::remove(path.c_str());
  file_ = std::fopen(path.c_str(), "w");
  if (file_ == nullptr) {
    armed_.store(false, std::memory_order_release);
    return false;
  }
  path_ = path;
  emitted_ = 0;
  armed_.store(true, std::memory_order_release);
  write_line(Event(Severity::kInfo, "telemetry.start")
                 .field("schema_version",
                        static_cast<std::int64_t>(kEventLogSchemaVersion))
                 .render());
  set_log_sink(&log_sink_adapter);
  return true;
}

void EventLog::close() {
  std::lock_guard lock(mu_);
  if (file_ == nullptr) return;
  // Disarm before the final line: a gt::log call from another thread may
  // race the close, and emit() checks the flag before taking mu_.
  armed_.store(false, std::memory_order_release);
  set_log_sink(nullptr);
  write_line(Event(Severity::kInfo, "telemetry.stop")
                 .field("events", emitted_)
                 .render());
  std::fclose(file_);
  file_ = nullptr;
}

void EventLog::emit(const Event& e) {
  if (!armed()) return;
  const std::string line = e.render();
  std::lock_guard lock(mu_);
  if (file_ == nullptr) return;  // closed between the check and the lock
  write_line(line);
}

void EventLog::write_line(const std::string& line) {
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  // Crash-safety contract: every line is durable in the stdio sense the
  // moment emit() returns; an abort mid-run loses nothing already logged.
  std::fflush(file_);
  ++emitted_;
}

void EventLog::flush() {
  std::lock_guard lock(mu_);
  if (file_ != nullptr) std::fflush(file_);
}

std::uint64_t EventLog::emitted() const {
  std::lock_guard lock(mu_);
  return emitted_;
}

std::string EventLog::path() const {
  std::lock_guard lock(mu_);
  return path_;
}

}  // namespace gt::obs::live
