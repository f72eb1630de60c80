#include "obs/live/event_log.hpp"

#include "obs/json.hpp"
#include "util/log.hpp"

namespace gt::obs::live {

namespace {

thread_local std::uint64_t t_correlation = 0;

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
  msg_ = m;
  return *this;
}

Event& Event::field(const char* key, std::int64_t v) {
  fields_ = JsonWriter::members(std::move(fields_)).member(key, v).take();
  return *this;
}

Event& Event::field(const char* key, std::uint64_t v) {
  fields_ = JsonWriter::members(std::move(fields_)).member(key, v).take();
  return *this;
}

Event& Event::field(const char* key, double v) {
  fields_ = JsonWriter::members(std::move(fields_)).member(key, v).take();
  return *this;
}

Event& Event::field(const char* key, std::string_view v) {
  fields_ = JsonWriter::members(std::move(fields_)).member(key, v).take();
  return *this;
}

std::string Event::render() const {
  JsonWriter w(JsonWriter::kCompact);
  w.object().key("ts_ms").fixed(log_uptime_ms(), 3);
  w.member("tid", log_thread_index()).member("cid", t_correlation);
  w.member("sev", to_string(sev_)).member("type", type_);
  if (!msg_.empty()) w.member("msg", msg_);
  if (!fields_.empty()) w.key("fields").raw("{" + fields_ + "}");
  return w.end().take();
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
