#include "obs/trace.hpp"

#include <chrono>
#include <fstream>

#include "obs/json.hpp"

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

void Tracer::write_chrome_trace(std::ostream& os) const {
  JsonWriter w;
  w.object().key("traceEvents").array();
  {
    std::lock_guard lock(registry_mu_);
    for (const auto& [tid, name] : sim_thread_names_) {
      w.object(JsonWriter::kInline).member("name", "thread_name");
      w.member("ph", "M").member("pid", kSimPid).member("tid", tid);
      w.key("args").object().member("name", name).end().end();
    }
  }
  // One event at a time to the stream: the rendered document never sits in
  // memory beside the events it renders.
  for (const TraceEvent& e : snapshot()) {
    w.object(JsonWriter::kInline).member("name", e.name);
    w.member("cat", e.cat.empty() ? std::string_view("default") : e.cat);
    w.member("ph", "X").key("ts").fixed(e.ts_us, 3);
    w.key("dur").fixed(e.dur_us, 3).member("pid", e.pid).member("tid", e.tid);
    if (!e.args_json.empty()) w.key("args").raw("{" + e.args_json + "}");
    w.end().flush(os);
  }
  w.end().member("displayTimeUnit", "ms").end().flush(os);
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
  if (tracer_ != nullptr)
    args_ = JsonWriter::members(std::move(args_)).member(key, v).take();
}

void Span::arg(const char* key, double v) {
  if (tracer_ != nullptr)
    args_ = JsonWriter::members(std::move(args_)).member(key, v).take();
}

void Span::arg(const char* key, std::string_view v) {
  if (tracer_ != nullptr)
    args_ = JsonWriter::members(std::move(args_)).member(key, v).take();
}

}  // namespace gt::obs
