#include "obs/trace.hpp"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>

namespace gt::obs {

namespace {

thread_local Tracer* tls_owner = nullptr;
thread_local void* tls_buffer = nullptr;

}  // namespace

Tracer& Tracer::global() {
  // Leaked: instrumented code may run during static destruction.
  static Tracer* t = new Tracer();
  return *t;
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  if (tls_owner == this && tls_buffer != nullptr)
    return *static_cast<ThreadBuffer*>(tls_buffer);
  std::lock_guard lock(registry_mu_);
  buffers_.push_back(std::make_unique<ThreadBuffer>());
  buffers_.back()->tid = next_tid_++;
  tls_owner = this;
  tls_buffer = buffers_.back().get();
  return *buffers_.back();
}

std::uint32_t Tracer::thread_id() { return local_buffer().tid; }

void Tracer::emit(TraceEvent e) {
  ThreadBuffer& buf = local_buffer();
  if (e.pid == kWallPid && e.tid == 0) e.tid = buf.tid;
  std::lock_guard lock(buf.mu);
  buf.events.push_back(std::move(e));
}

double Tracer::advance_virtual(double dur_us) {
  double cur = virtual_now_us_.load(std::memory_order_relaxed);
  while (!virtual_now_us_.compare_exchange_weak(cur, cur + dur_us,
                                                std::memory_order_relaxed)) {
  }
  return cur;
}

void Tracer::set_sim_thread_name(std::uint32_t tid, std::string name) {
  std::lock_guard lock(registry_mu_);
  for (const auto& [t, n] : sim_thread_names_)
    if (t == tid) return;
  sim_thread_names_.emplace_back(tid, std::move(name));
}

std::size_t Tracer::event_count() const {
  std::size_t n = 0;
  std::lock_guard lock(registry_mu_);
  for (const auto& buf : buffers_) {
    std::lock_guard inner(buf->mu);
    n += buf->events.size();
  }
  return n;
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<TraceEvent> all;
  std::lock_guard lock(registry_mu_);
  for (const auto& buf : buffers_) {
    std::lock_guard inner(buf->mu);
    all.insert(all.end(), buf->events.begin(), buf->events.end());
  }
  return all;
}

void json_escape(std::string_view s, std::string& out) {
  for (char c : s) {
    switch (c) {
      case '"':  out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof hex, "\\u%04x", c);
          out += hex;
        } else {
          out += c;
        }
    }
  }
}

namespace {

void write_event(std::ostream& os, const TraceEvent& e) {
  std::string name, cat;
  json_escape(e.name, name);
  json_escape(e.cat, cat);
  char num[160];
  std::snprintf(num, sizeof num,
                "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%" PRIu32 ",\"tid\":%" PRIu32,
                e.ts_us, e.dur_us, e.pid, e.tid);
  os << "{\"name\":\"" << name << "\",\"cat\":\""
     << (cat.empty() ? "default" : cat) << "\",\"ph\":\"X\"," << num;
  if (!e.args_json.empty()) os << ",\"args\":{" << e.args_json << "}";
  os << "}";
}

}  // namespace

void Tracer::write_chrome_trace(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  {
    std::lock_guard lock(registry_mu_);
    for (const auto& [tid, name] : sim_thread_names_) {
      if (!first) os << ",\n";
      first = false;
      std::string escaped;
      json_escape(name, escaped);
      os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << kSimPid
         << ",\"tid\":" << tid << ",\"args\":{\"name\":\"" << escaped
         << "\"}}";
    }
  }
  for (const TraceEvent& e : snapshot()) {
    if (!first) os << ",\n";
    first = false;
    write_event(os, e);
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
}

bool Tracer::write_chrome_trace_file(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  write_chrome_trace(f);
  return static_cast<bool>(f);
}

void Tracer::clear() {
  std::lock_guard lock(registry_mu_);
  for (const auto& buf : buffers_) {
    std::lock_guard inner(buf->mu);
    buf->events.clear();
  }
  sim_thread_names_.clear();
  virtual_now_us_.store(0.0, std::memory_order_relaxed);
}

// ---- Span -------------------------------------------------------------------

double Span::stop() {
  if (!timing_) return 0.0;
  timing_ = false;
  const std::chrono::steady_clock::time_point end =
      std::chrono::steady_clock::now();
  const std::int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
          .count();
  const double us = static_cast<double>(ns) / 1e3;
  if (staged_) {
    live::WorkerProfiler& p = live::WorkerProfiler::global();
    if (p.enabled()) p.add(stage_, static_cast<std::uint64_t>(ns));
  }
  if (tracer_ != nullptr) {
    TraceEvent e;
    e.name = name_;
    e.cat = cat_;
    e.ts_us = std::chrono::duration<double, std::micro>(start_ -
                                                        tracer_->epoch_)
                  .count();
    e.dur_us = us;
    e.args_json = std::move(args_);
    tracer_->emit(std::move(e));
    tracer_ = nullptr;
  }
  return us;
}

void Span::arg(const char* key, std::int64_t v) {
  if (tracer_ == nullptr) return;
  if (!args_.empty()) args_ += ',';
  args_ += '"';
  json_escape(key, args_);
  args_ += "\":";
  args_ += std::to_string(v);
}

void Span::arg(const char* key, double v) {
  if (tracer_ == nullptr) return;
  char num[48];
  std::snprintf(num, sizeof num, "%.6g", v);
  if (!args_.empty()) args_ += ',';
  args_ += '"';
  json_escape(key, args_);
  args_ += "\":";
  args_ += num;
}

void Span::arg(const char* key, std::string_view v) {
  if (tracer_ == nullptr) return;
  if (!args_.empty()) args_ += ',';
  args_ += '"';
  json_escape(key, args_);
  args_ += "\":\"";
  json_escape(v, args_);
  args_ += '"';
}

}  // namespace gt::obs
