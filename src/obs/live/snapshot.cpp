#include "obs/live/snapshot.hpp"

#include <fcntl.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/json.hpp"
#include "obs/live/event_log.hpp"
#include "obs/live/watchdog.hpp"
#include "obs/live/worker_profiler.hpp"
#include "util/log.hpp"

namespace gt::obs::live {

// ---- TimeSeriesRing ---------------------------------------------------------

void TimeSeriesRing::push(SnapshotSample s) {
  prev_ = std::move(cur_);
  cur_ = std::move(s);
  size_ = std::min(size_ + 1, 2);
}

namespace {

// Snapshot files are replaced every batch at interval 1, so they are never
// truncated in place or renamed over an existing file: ext4 (auto_da_alloc)
// starts a disk write of a file's data when it is truncated to zero and
// closed, or when it replaces another file by rename. Unlinking first and
// swapping names keeps the disk off the batch path.

/// Write `text` to a new file at `path`, unlinking any old one first.
bool write_new_file(const std::string& path, const std::string& text) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::ofstream f(path, std::ios::binary);
  f.write(text.data(), static_cast<std::streamsize>(text.size()));
  f.close();
  return !f.fail();
}

/// Atomically make `from` the file at `to`: a reader of `to` sees the old
/// file or the new one, never neither. Swaps the two names and unlinks the
/// old file; falls back to rename where the swap is unavailable.
bool replace_file(const std::string& from, const std::string& to) {
  std::error_code ec;
#ifdef RENAME_EXCHANGE
  if (::renameat2(AT_FDCWD, from.c_str(), AT_FDCWD, to.c_str(),
                  RENAME_EXCHANGE) == 0) {
    std::filesystem::remove(from, ec);
    return true;
  }
#endif
  std::filesystem::rename(from, to, ec);
  return !ec;
}

const std::uint64_t* find_counter(const SnapshotSample& s,
                                  std::string_view name) {
  const auto it = std::lower_bound(
      s.counters.begin(), s.counters.end(), name,
      [](const auto& kv, std::string_view n) { return kv.first < n; });
  if (it == s.counters.end() || it->first != name) return nullptr;
  return &it->second;
}

}  // namespace

TimeSeriesRing::Rate TimeSeriesRing::rate(std::string_view counter) const {
  Rate r;
  if (size_ < 2) return r;
  const std::uint64_t* a = find_counter(prev_, counter);
  const std::uint64_t* b = find_counter(cur_, counter);
  if (a == nullptr || b == nullptr) return r;
  // Counters are monotonic; a reset() between samples shows as a smaller
  // value, which we clamp to zero delta rather than a negative rate.
  const double delta =
      *b >= *a ? static_cast<double>(*b - *a) : 0.0;
  const double dt_sec = (cur_.ts_ms - prev_.ts_ms) / 1e3;
  const double dbatch = static_cast<double>(
      cur_.batches >= prev_.batches ? cur_.batches - prev_.batches : 0);
  r.per_sec = dt_sec > 0.0 ? delta / dt_sec : 0.0;
  r.per_batch = dbatch > 0.0 ? delta / dbatch : 0.0;
  r.known = true;
  return r;
}

// ---- TelemetrySnapshotter ---------------------------------------------------

TelemetrySnapshotter::TelemetrySnapshotter(MetricsRegistry& registry,
                                           SnapshotterOptions opt)
    : registry_(registry), opt_(std::move(opt)) {
  if (opt_.interval == 0) opt_.interval = 1;
  if (opt_.keep == 0) opt_.keep = 1;
  std::error_code ec;
  std::filesystem::create_directories(opt_.dir, ec);
  if (ec)
    throw std::runtime_error("telemetry: cannot create snapshot dir '" +
                             opt_.dir + "': " + ec.message());
}

SnapshotSample TelemetrySnapshotter::capture() {
  SnapshotSample s;
  s.seq = seq_;
  s.ts_ms = gt::log_uptime_ms();
  s.batches = ticks_;
  s.counters = registry_.counter_values();
  s.gauges = registry_.gauge_values();
  return s;
}

bool TelemetrySnapshotter::tick() {
  ++ticks_;
  if (ticks_ % opt_.interval != 0) return false;
  return emit(capture());
}

bool TelemetrySnapshotter::emit_now() { return emit(capture()); }

bool TelemetrySnapshotter::emit(const SnapshotSample& cur) {
  ring_.push(cur);
  std::ostringstream os;
  write_snapshot(ring_.newest(), os);
  const std::string text = std::move(os).str();
  if (!write_new_file(opt_.dir + "/snapshot-" +
                          std::to_string(seq_ % opt_.keep) + ".json",
                      text))
    return false;
  // latest.json is written whole then swapped in so a concurrent reader
  // (gt_top) never parses a torn file.
  const std::string tmp_path = opt_.dir + "/latest.json.tmp";
  if (!write_new_file(tmp_path, text) ||
      !replace_file(tmp_path, opt_.dir + "/latest.json"))
    return false;
  ++seq_;
  ++emitted_;
  if (EventLog::global().armed()) {
    Event ev(Severity::kDebug, "telemetry.snapshot");
    ev.field("seq", cur.seq).field("batches", cur.batches);
    EventLog::global().emit(ev);
  }
  return true;
}

void TelemetrySnapshotter::write_snapshot(const SnapshotSample& cur,
                                          std::ostream& os) const {
  JsonWriter w;
  w.object().member("schema_version", kSnapshotSchemaVersion);
  w.member("seq", cur.seq).member("ts_ms", cur.ts_ms);
  w.member("batches", cur.batches).member("interval", opt_.interval);
  w.key("counters").object();
  for (const auto& [name, v] : cur.counters) w.member(name, v);
  w.end().key("gauges").object();
  for (const auto& [name, v] : cur.gauges) w.member(name, v);
  w.end().key("rates").object();
  for (const auto& [name, v] : cur.counters) {
    (void)v;
    const TimeSeriesRing::Rate r = ring_.rate(name);
    if (!r.known) continue;
    w.key(name).object(JsonWriter::kInline).member("per_sec", r.per_sec);
    w.member("per_batch", r.per_batch).end();
  }
  w.end().key("histograms").object();
  for (const MetricsRegistry::HistogramSummary& h :
       registry_.histogram_summaries()) {
    w.key(h.name).object(JsonWriter::kInline).member("count", h.count);
    w.member("mean", h.mean).member("min", h.min).member("max", h.max);
    w.member("p50", h.p50).member("p95", h.p95).member("p99", h.p99).end();
  }

  // Stage totals + shares of host wall-clock busy time. Shares are over
  // the six fine-grained pipeline stages (S/R/K/T/FWP/BWP) — the Fig 12
  // decomposition applied to the simulator's own threads — not the two
  // enclosing phases, which would double-count them.
  const WorkerProfiler& prof = WorkerProfiler::global();
  const auto totals = prof.stage_totals();
  double fine_total_ns = 0.0;
  for (std::size_t j = static_cast<std::size_t>(Stage::kSample);
       j < kNumStages; ++j)
    fine_total_ns += static_cast<double>(totals[j]);
  w.end().key("stages").object();
  for (std::size_t j = 0; j < kNumStages; ++j)
    w.member(std::string(to_string(static_cast<Stage>(j))) + "_ms",
             static_cast<double>(totals[j]) / 1e6);
  w.key("shares").object(JsonWriter::kInline);
  for (std::size_t j = static_cast<std::size_t>(Stage::kSample);
       j < kNumStages; ++j)
    w.member(to_string(static_cast<Stage>(j)),
             fine_total_ns > 0.0
                 ? static_cast<double>(totals[j]) / fine_total_ns
                 : 0.0);
  w.end().end();

  // Per-worker utilization and skew, merged from the profiler slots.
  const double wall_ns =
      static_cast<double>(prof.wall_since_enable_ns());
  const auto slots = prof.snapshot();
  double busy_sum = 0.0, busy_max = 0.0;
  w.key("workers").array();
  for (const WorkerProfiler::SlotSnapshot& s : slots) {
    const double busy = static_cast<double>(s.busy_ns);
    busy_sum += busy;
    busy_max = std::max(busy_max, busy);
    w.object(JsonWriter::kInline).member("slot", s.slot);
    w.member("busy_ms", busy / 1e6);
    w.member("util", wall_ns > 0.0 ? busy / wall_ns : 0.0);
    for (std::size_t j = 0; j < kNumStages; ++j)
      w.member(std::string(to_string(static_cast<Stage>(j))) + "_ms",
               static_cast<double>(s.stage_ns[j]) / 1e6);
    w.end();
  }
  const double busy_mean =
      slots.empty() ? 0.0 : busy_sum / static_cast<double>(slots.size());
  w.end().member("worker_skew", busy_mean > 0.0 ? busy_max / busy_mean : 0.0);

  const bool watched = watchdog_ != nullptr;
  w.key("health").object(JsonWriter::kInline);
  w.member("state", watched && watchdog_->stalled() ? "stalled" : "ok");
  w.member("heartbeats", watched ? watchdog_->heartbeats() : 0);
  w.member("stalls", watched ? watchdog_->stalls_detected() : 0);
  w.end().end().flush(os);
}

}  // namespace gt::obs::live
