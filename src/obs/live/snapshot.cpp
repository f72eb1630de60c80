#include "obs/live/snapshot.hpp"

#include <fcntl.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/live/event_log.hpp"
#include "obs/live/watchdog.hpp"
#include "obs/live/worker_profiler.hpp"
#include "obs/trace.hpp"
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

namespace {

void write_number(std::ostream& os, double v) {
  char num[48];
  std::snprintf(num, sizeof num, "%.6g", v);
  os << num;
}

void write_key(std::ostream& os, const std::string& name) {
  std::string escaped;
  json_escape(name, escaped);
  os << '"' << escaped << "\":";
}

}  // namespace

void TelemetrySnapshotter::write_snapshot(const SnapshotSample& cur,
                                          std::ostream& os) const {
  os << "{\n  \"schema_version\": " << kSnapshotSchemaVersion
     << ",\n  \"seq\": " << cur.seq << ",\n  \"ts_ms\": ";
  write_number(os, cur.ts_ms);
  os << ",\n  \"batches\": " << cur.batches
     << ",\n  \"interval\": " << opt_.interval;

  os << ",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : cur.counters) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    write_key(os, name);
    os << v;
  }
  os << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : cur.gauges) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    write_key(os, name);
    write_number(os, v);
  }

  os << "\n  },\n  \"rates\": {";
  first = true;
  for (const auto& [name, v] : cur.counters) {
    (void)v;
    const TimeSeriesRing::Rate r = ring_.rate(name);
    if (!r.known) continue;
    os << (first ? "\n    " : ",\n    ");
    first = false;
    write_key(os, name);
    os << "{\"per_sec\":";
    write_number(os, r.per_sec);
    os << ",\"per_batch\":";
    write_number(os, r.per_batch);
    os << "}";
  }

  os << "\n  },\n  \"histograms\": {";
  first = true;
  for (const MetricsRegistry::HistogramSummary& h :
       registry_.histogram_summaries()) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    write_key(os, h.name);
    os << "{\"count\":" << h.count << ",\"mean\":";
    write_number(os, h.mean);
    os << ",\"min\":";
    write_number(os, h.min);
    os << ",\"max\":";
    write_number(os, h.max);
    os << ",\"p50\":";
    write_number(os, h.p50);
    os << ",\"p95\":";
    write_number(os, h.p95);
    os << ",\"p99\":";
    write_number(os, h.p99);
    os << "}";
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
  os << "\n  },\n  \"stages\": {";
  for (std::size_t j = 0; j < kNumStages; ++j) {
    os << (j == 0 ? "\n    " : ",\n    ");
    write_key(os, std::string(to_string(static_cast<Stage>(j))) + "_ms");
    write_number(os, static_cast<double>(totals[j]) / 1e6);
  }
  os << ",\n    \"shares\": {";
  for (std::size_t j = static_cast<std::size_t>(Stage::kSample);
       j < kNumStages; ++j) {
    os << (j == static_cast<std::size_t>(Stage::kSample) ? "" : ", ");
    write_key(os, to_string(static_cast<Stage>(j)));
    write_number(os, fine_total_ns > 0.0
                         ? static_cast<double>(totals[j]) / fine_total_ns
                         : 0.0);
  }
  os << "}";

  // Per-worker utilization and skew, merged from the profiler slots.
  const double wall_ns =
      static_cast<double>(prof.wall_since_enable_ns());
  const auto slots = prof.snapshot();
  double busy_sum = 0.0, busy_max = 0.0;
  os << "\n  },\n  \"workers\": [";
  first = true;
  for (const WorkerProfiler::SlotSnapshot& s : slots) {
    const double busy = static_cast<double>(s.busy_ns);
    busy_sum += busy;
    busy_max = std::max(busy_max, busy);
    os << (first ? "\n    " : ",\n    ");
    first = false;
    os << "{\"slot\":" << s.slot << ",\"busy_ms\":";
    write_number(os, busy / 1e6);
    os << ",\"util\":";
    write_number(os, wall_ns > 0.0 ? busy / wall_ns : 0.0);
    for (std::size_t j = 0; j < kNumStages; ++j) {
      os << ",";
      write_key(os, std::string(to_string(static_cast<Stage>(j))) + "_ms");
      write_number(os, static_cast<double>(s.stage_ns[j]) / 1e6);
    }
    os << "}";
  }
  const double busy_mean =
      slots.empty() ? 0.0 : busy_sum / static_cast<double>(slots.size());
  os << "\n  ],\n  \"worker_skew\": ";
  write_number(os, busy_mean > 0.0 ? busy_max / busy_mean : 0.0);

  os << ",\n  \"health\": {";
  if (watchdog_ != nullptr) {
    os << "\"state\":\""
       << (watchdog_->stalled() ? "stalled" : "ok")
       << "\",\"heartbeats\":" << watchdog_->heartbeats()
       << ",\"stalls\":" << watchdog_->stalls_detected();
  } else {
    os << "\"state\":\"ok\",\"heartbeats\":0,\"stalls\":0";
  }
  os << "}\n}\n";
}

}  // namespace gt::obs::live
