// gt_top: live dashboard over a service's telemetry directory.
//
//   $ ./tools/gt_top <telemetry-dir>            # live refresh (ANSI, 1s)
//   $ ./tools/gt_top --once <telemetry-dir>     # render once, no escapes
//   $ ./tools/gt_top --check <telemetry-dir>    # validate, no rendering
//
// The service (service_cli --telemetry-out=DIR, or any GnnService with
// telemetry armed) keeps DIR/latest.json atomically up to date and
// appends DIR/events.jsonl; gt_top only ever reads those files, so it can
// run on a live directory without any coordination. Rendered panels: the
// S/R/K/T/FWP/BWP stage shares of the worker profiler's host wall-clock
// busy time (the paper's Fig 12 decomposition applied to the simulator's
// own threads; the modeled, virtual-time breakdown is the kernel ledger's
// kernels.json, read by tools/gt_explain), the per-worker
// busy/utilization table with load skew, queue depth and p99 batch
// latency, retry/degradation/OOM rates, and watchdog health. Every
// percentile shown is the snapshot histograms' bucket estimate
// (obs::Histogram::quantile) and says so; service_cli --serve prints the
// exact nearest-rank figures.
//
// Flags:
//   --once             render one frame and exit (no screen clearing) —
//                      the headless/CI mode.
//   --check            validate the directory instead of rendering:
//                      schema-check latest.json + every snapshot-*.json +
//                      every events.jsonl line, and verify the causal
//                      chain — every service.retry / service.degraded
//                      event's cid must resolve to a fault.inject event
//                      with the same cid. Exit 0 = clean, 1 = violations,
//                      2 = unreadable directory.
//   --refresh-ms=N     live refresh period, 50..3600000 (default 1000).
//   --frames=N         stop after N live frames (0 = until interrupted).
//   --no-color         disable ANSI colors (also: a non-empty NO_COLOR
//                      env, or stdout not a terminal). Colors only ever decorate output;
//                      the text underneath is identical either way.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "obs/json.hpp"
#include "obs/live/snapshot.hpp"
#include "util/options.hpp"

namespace {

using gt::obs::JsonValue;
using gt::obs::live::kSnapshotSchemaVersion;

// ---- colors -----------------------------------------------------------------

bool g_color = false;  // decided once in main()

bool stdout_is_tty() {
#if defined(__unix__) || defined(__APPLE__)
  return isatty(1) != 0;
#else
  return false;
#endif
}

const char* c_reset() { return g_color ? "\x1b[0m" : ""; }
const char* c_bold() { return g_color ? "\x1b[1m" : ""; }
const char* c_green() { return g_color ? "\x1b[32m" : ""; }
const char* c_yellow() { return g_color ? "\x1b[33m" : ""; }
const char* c_red() { return g_color ? "\x1b[31m" : ""; }

/// Health-state color: ok = green, stalled = red, anything else yellow.
const char* state_color(const std::string& state) {
  if (state == "ok") return c_green();
  if (state == "stalled") return c_red();
  return c_yellow();
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return {};
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

void bar(char* out, std::size_t width, double frac) {
  frac = std::clamp(frac, 0.0, 1.0);
  const std::size_t fill =
      static_cast<std::size_t>(frac * static_cast<double>(width) + 0.5);
  for (std::size_t i = 0; i < width; ++i) out[i] = i < fill ? '#' : '.';
  out[width] = '\0';
}

// ---- render -----------------------------------------------------------------

int render(const std::string& dir, bool clear_screen) {
  JsonValue snap;
  std::string err;
  if (!gt::obs::json_parse_file(dir + "/latest.json", &snap, &err)) {
    std::fprintf(stderr, "gt_top: cannot read %s/latest.json: %s\n",
                 dir.c_str(), err.empty() ? "missing" : err.c_str());
    return 2;
  }
  if (clear_screen) std::printf("\x1b[2J\x1b[H");

  const JsonValue& health = snap.at("health");
  const std::string& state = health.string_at("state");
  std::printf(
      "%sgt_top — %s%s   seq %.0f · %.0f batches · t=%.1f ms · health "
      "%s%s%s\n",
      c_bold(), dir.c_str(), c_reset(), snap.number_at("seq"),
      snap.number_at("batches"), snap.number_at("ts_ms"), state_color(state),
      state.c_str(), c_reset());

  // Stage shares: host wall-clock busy time of the six fine-grained
  // pipeline stages, from the worker profiler.
  static const char* kStages[] = {"sample",   "reindex", "lookup",
                                  "transfer", "fwp",     "bwp"};
  const JsonValue& stages = snap.at("stages");
  const JsonValue& shares = stages.at("shares");
  std::printf("\nstage shares, host wall-clock busy (S/R/K/T/FWP/BWP)\n");
  char b[41];
  for (const char* name : kStages) {
    const double share = shares.number_at(name);
    const double ms = stages.number_at(std::string(name) + "_ms");
    bar(b, 28, share);
    std::printf("  %-9s %5.1f%%  %s  %8.2f ms\n", name, 100.0 * share, b,
                ms);
  }

  // Per-worker utilization + skew.
  const auto& workers = snap.at("workers").as_array();
  std::printf("\nworkers (%zu slot%s, skew %.2f)\n", workers.size(),
              workers.size() == 1 ? "" : "s", snap.number_at("worker_skew"));
  for (const JsonValue& w : workers) {
    const double util = w.number_at("util");
    bar(b, 28, util);
    std::printf("  w%-3.0f %6.1f%%  %s  busy %8.2f ms (prep %.1f / exec "
                "%.1f)\n",
                w.number_at("slot"), 100.0 * util, b, w.number_at("busy_ms"),
                w.number_at("prepare_ms"), w.number_at("execute_ms"));
  }

  // Service panel: gauges + counters + windowed rates.
  const JsonValue& gauges = snap.at("gauges");
  const JsonValue& counters = snap.at("counters");
  const JsonValue& rates = snap.at("rates");

  // Modeled device group (DESIGN.md §14): present only for --devices > 1
  // runs — the per-device share of the group makespan mirrors the worker
  // utilization table above, but over *simulated* device lanes.
  const double devices = gauges.number_at("gpusim.devices");
  if (devices > 1.0) {
    std::printf("\ndevices (%.0f modeled, group makespan %.1f us)\n",
                devices, gauges.number_at("gpusim.group.makespan_us"));
    for (double d = 0.0; d < devices; d += 1.0) {
      const std::string prefix =
          "gpusim.device." + std::to_string(static_cast<int>(d)) + ".";
      const double share = gauges.number_at(prefix + "share");
      bar(b, 28, share);
      std::printf("  d%-3.0f %6.1f%%  %s  busy %10.1f us\n", d,
                  100.0 * share, b, gauges.number_at(prefix + "busy_us"));
    }
    std::printf("  comm  %.0f collectives · %.0f steps · %.1f KiB · %.1f "
                "us\n",
                counters.number_at("comm.collectives"),
                counters.number_at("comm.steps"),
                counters.number_at("comm.bytes") / 1024.0,
                gauges.number_at("comm.us"));
  }
  auto rate_of = [&](const char* name) {
    return rates.at(name).number_at("per_batch");
  };
  std::printf("\nservice\n");
  std::printf("  queue depth   %6.0f      p99 batch e2e %10.1f us (bucket "
              "estimate)\n",
              gauges.number_at("service.queue_depth"),
              gauges.number_at("service.p99_latency_us"));
  std::printf("  retries       %6.0f      (%.2f/batch in window)\n",
              counters.number_at("service.retries"),
              rate_of("service.retries"));
  std::printf("  degraded      %6.0f      (%.2f/batch in window)\n",
              counters.number_at("service.degraded_batches"),
              rate_of("service.degraded_batches"));
  std::printf("  oom batches   %6.0f      backoff ticks %10.0f\n",
              counters.number_at("service.oom_batches"),
              counters.number_at("service.backoff_ticks"));
  const double hits = counters.number_at("embedding_cache.hits");
  const double misses = counters.number_at("embedding_cache.misses");
  if (hits + misses > 0.0)
    std::printf("  cache hits    %6.0f      hit rate %16.1f%%\n", hits,
                100.0 * hits / (hits + misses));
  // Per-tier breakdown of the cache hierarchy (DESIGN.md §15); the keys
  // only exist on cache-enabled runs, so probe with the zero fallback.
  const double tier_static = counters.number_at("cache.static.hits");
  const double tier_dynamic = counters.number_at("cache.dynamic.hits");
  const double tier_prefetch = counters.number_at("cache.prefetch.hits");
  if (tier_static + tier_dynamic + tier_prefetch > 0.0)
    std::printf("  cache tiers   static %.0f / dynamic %.0f / prefetch %.0f "
                "· %.0f evictions · dyn occupancy %.0f rows\n",
                tier_static, tier_dynamic, tier_prefetch,
                counters.number_at("cache.evictions"),
                gauges.number_at("cache.dynamic.occupancy"));
  // Cost-model health (DESIGN.md §13): present once the DKP model has
  // fitted and started streaming residuals. Drift events latch the
  // counter, so a past excursion stays visible.
  if (gauges.at("costmodel.residual.p95").is_number()) {
    const double drift_events = counters.number_at("costmodel.drift");
    std::printf("  cost model    p50 %.1f%% / p95 %s%.1f%%%s residual "
                "(%.0f drift event%s)\n",
                gauges.number_at("costmodel.residual.p50"),
                drift_events > 0.0 ? c_red() : c_green(),
                gauges.number_at("costmodel.residual.p95"), c_reset(),
                drift_events, drift_events == 1.0 ? "" : "s");
  }
  std::printf("  watchdog      %s%s%s (%.0f heartbeats, %.0f stall%s)\n",
              state_color(state), state.c_str(), c_reset(),
              health.number_at("heartbeats"), health.number_at("stalls"),
              health.number_at("stalls") == 1.0 ? "" : "s");

  // Online serving panel (DESIGN.md §16): present only when a serve() run
  // has published serving.* counters into this snapshot stream.
  const double arrived = counters.number_at("serving.requests.arrived");
  if (arrived > 0.0) {
    const double admitted = counters.number_at("serving.requests.admitted");
    const double shed_slo = counters.number_at("serving.requests.shed_slo");
    const double shed_full =
        counters.number_at("serving.requests.shed_queue_full");
    const double shed_down =
        counters.number_at("serving.requests.shed_shutdown");
    const double completed =
        counters.number_at("serving.requests.completed");
    const double degraded = counters.number_at("serving.requests.degraded");
    const double shed = shed_slo + shed_full;
    std::printf("\nserving\n");
    std::printf("  requests      arrived %.0f · admitted %.0f · completed "
                "%.0f · degraded %.0f\n",
                arrived, admitted, completed, degraded);
    std::printf("  shed          %s%.1f%%%s (slo %.0f / queue-full %.0f / "
                "shutdown %.0f)\n",
                shed / arrived > 0.5 ? c_red()
                                     : (shed > 0.0 ? c_yellow() : c_green()),
                100.0 * shed / arrived, c_reset(), shed_slo, shed_full,
                shed_down);
    const JsonValue& hists = snap.at("histograms");
    if (hists.is_object() &&
        hists.at("serving.request_latency_us").is_object()) {
      const JsonValue& lat = hists.at("serving.request_latency_us");
      std::printf("  latency       p50 %.0f / p95 %.0f / p99 %.0f ticks "
                  "(bucket estimate, %.0f sampled)\n",
                  lat.number_at("p50"), lat.number_at("p95"),
                  lat.number_at("p99"), lat.number_at("count"));
    }
    std::printf("  goodput       %.1f rps · batches %.0f · queue depth "
                "%.0f (peak %.0f) · est %.0f ticks/batch\n",
                gauges.number_at("serving.goodput_rps"),
                counters.number_at("serving.batches"),
                gauges.number_at("serving.queue.depth"),
                gauges.number_at("serving.queue.peak"),
                gauges.number_at("serving.est_batch_ticks"));
  }
  return 0;
}

// ---- check ------------------------------------------------------------------

struct Checker {
  int violations = 0;

  void fail(const std::string& what) {
    ++violations;
    std::fprintf(stderr, "gt_top --check: %s\n", what.c_str());
  }

  void require(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }

  void check_snapshot(const std::string& path) {
    JsonValue v;
    std::string err;
    if (!gt::obs::json_parse_file(path, &v, &err)) {
      fail(path + ": unparsable: " + err);
      return;
    }
    require(v.number_at("schema_version") == kSnapshotSchemaVersion,
            path + ": schema_version != " +
                std::to_string(kSnapshotSchemaVersion));
    for (const char* key : {"counters", "gauges", "rates", "histograms",
                            "stages", "health"})
      require(v.at(key).is_object(),
              path + ": missing object member '" + std::string(key) + "'");
    require(v.at("workers").is_array(), path + ": 'workers' not an array");
    require(v.at("seq").is_number() && v.at("batches").is_number() &&
                v.at("ts_ms").is_number(),
            path + ": seq/batches/ts_ms must be numbers");
    require(v.at("stages").at("shares").is_object(),
            path + ": stages.shares missing");
    const std::string& state = v.at("health").string_at("state");
    require(state == "ok" || state == "stalled",
            path + ": health.state '" + state + "' invalid");

    // Serving accounting invariants (DESIGN.md §16). The planner decides
    // every arrival exactly once — admitted or shed at the door — and
    // only admitted requests can later complete, degrade, or drain as
    // shutdown sheds; the planner running ahead of execution means
    // completion may lag admission, never lead it.
    if (v.at("counters").is_object()) {
      const JsonValue& counters = v.at("counters");
      const double arrived = counters.number_at("serving.requests.arrived");
      if (arrived > 0.0) {
        const double admitted =
            counters.number_at("serving.requests.admitted");
        const double shed_slo =
            counters.number_at("serving.requests.shed_slo");
        const double shed_full =
            counters.number_at("serving.requests.shed_queue_full");
        const double shed_down =
            counters.number_at("serving.requests.shed_shutdown");
        const double completed =
            counters.number_at("serving.requests.completed");
        const double degraded =
            counters.number_at("serving.requests.degraded");
        require(admitted + shed_slo + shed_full == arrived,
                path + ": serving arrivals unaccounted (admitted " +
                    std::to_string(admitted) + " + shed " +
                    std::to_string(shed_slo + shed_full) + " != arrived " +
                    std::to_string(arrived) + ")");
        require(completed + degraded + shed_down <= admitted,
                path + ": serving resolved more requests than admitted");
      }
    }
  }
};

int check(const std::string& dir) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(dir)) {
    std::fprintf(stderr, "gt_top --check: %s is not a directory\n",
                 dir.c_str());
    return 2;
  }
  Checker c;

  // Snapshot schema over latest.json + the whole rotating set.
  std::vector<std::string> snapshots;
  if (fs::exists(dir + "/latest.json")) snapshots.push_back(dir +
                                                            "/latest.json");
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snapshot-", 0) == 0 && name.size() > 5 &&
        name.substr(name.size() - 5) == ".json")
      snapshots.push_back(entry.path().string());
  }
  std::sort(snapshots.begin(), snapshots.end());
  if (snapshots.empty()) {
    std::fprintf(stderr, "gt_top --check: no snapshots in %s\n", dir.c_str());
    return 2;
  }
  for (const std::string& path : snapshots) c.check_snapshot(path);

  // Event log: per-line schema + the causal-chain invariant. A service
  // can legitimately produce no events yet (freshly started, or torn down
  // before its first batch), so a missing or empty events.jsonl is a
  // warning and an empty-but-valid check — not a hard failure; snapshots
  // were already validated above.
  const std::string events_path = dir + "/events.jsonl";
  const std::string text = slurp(events_path);
  if (text.empty()) {
    std::fprintf(stderr,
                 "gt_top --check: warning: %s %s (0 events checked)\n",
                 events_path.c_str(),
                 fs::exists(events_path) ? "is empty" : "is missing");
  }
  static const std::set<std::string> kSevs = {"debug", "info", "warn",
                                              "error"};
  std::set<std::uint64_t> fault_cids;
  std::vector<std::pair<std::string, std::uint64_t>> needs_fault;  // type,cid
  std::size_t line_no = 0, events = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + start, end - start);
    start = end + 1;
    ++line_no;
    if (line.empty()) continue;
    ++events;
    JsonValue ev;
    std::string err;
    if (!gt::obs::json_parse(line, &ev, &err)) {
      c.fail(events_path + ":" + std::to_string(line_no) +
             ": unparsable event: " + err);
      continue;
    }
    const std::string where =
        events_path + ":" + std::to_string(line_no);
    c.require(ev.at("ts_ms").is_number() && ev.number_at("ts_ms") >= 0.0,
              where + ": ts_ms missing or negative");
    c.require(ev.at("tid").is_number(), where + ": tid missing");
    const std::optional<std::uint64_t> cid = ev.int_at<std::uint64_t>("cid");
    c.require(cid.has_value(),
              where + ": cid missing or not a non-negative integer");
    c.require(kSevs.count(ev.string_at("sev")) != 0,
              where + ": sev '" + ev.string_at("sev") + "' invalid");
    const std::string& type = ev.string_at("type");
    c.require(!type.empty(), where + ": type missing");
    if (!cid) continue;
    if (type == "fault.inject") fault_cids.insert(*cid);
    if (type == "service.retry" || type == "service.degraded")
      needs_fault.emplace_back(type, *cid);
  }

  // Every retry/degradation must trace back to the fault injection that
  // caused it, through the shared correlation id.
  for (const auto& [type, cid] : needs_fault)
    c.require(fault_cids.count(cid) != 0,
              events_path + ": " + type + " event with cid " +
                  std::to_string(cid) +
                  " has no fault.inject event with the same cid");

  std::printf("gt_top --check: %zu snapshot%s, %zu event%s, %zu causal "
              "link%s, %d violation%s\n",
              snapshots.size(), snapshots.size() == 1 ? "" : "s", events,
              events == 1 ? "" : "s", needs_fault.size(),
              needs_fault.size() == 1 ? "" : "s", c.violations,
              c.violations == 1 ? "" : "s");
  return c.violations == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool once = false, run_check = false, no_color = false;
  std::uint64_t refresh_ms = 1000, frames = 0;
  std::string dir;
  try {
    // --no-color also honors the conventional NO_COLOR variable.
    gt::parse_options(
        {gt::text("dir", &dir), gt::flag("--once", &once),
         gt::flag("--check", &run_check),
         gt::flag("--no-color", &no_color).env("NO_COLOR"),
         gt::count("--refresh-ms", &refresh_ms, "refresh period", 50,
                   3'600'000),
         gt::count("--frames", &frames, "frame count", 0)},
        {argv + 1, argv + argc});
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "gt_top: %s\n", e.what());
    return 2;
  }
  if (dir.empty()) {
    std::fprintf(stderr,
                 "usage: gt_top [--once|--check] [--no-color] "
                 "[--refresh-ms=N] [--frames=N] <telemetry-dir>\n");
    return 2;
  }
  // Colors only when stdout is an interactive terminal and nobody opted
  // out.
  g_color = !no_color && stdout_is_tty();
  if (run_check) return check(dir);
  if (once) return render(dir, /*clear_screen=*/false);
  std::uint64_t shown = 0;
  while (true) {
    // Clearing the screen needs escape support too; without a color-capable
    // terminal, frames append instead of overwriting garbage escapes.
    const int rc = render(dir, /*clear_screen=*/g_color);
    if (rc != 0) return rc;
    if (frames > 0 && ++shown >= frames) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(refresh_ms));
  }
}
