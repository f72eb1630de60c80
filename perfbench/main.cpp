// perfbench_gt: host wall-clock benchmark of the GraphTensor reproduction.
//
//   perfbench_gt --workload NAME --seed N --seconds S --trace 0|1
//                [--references FILE] [--out-dir DIR] [--git-sha SHA]
//
// --trace 0 measures the end-to-end metrics through the public GnnService
// API (train_batches / serve), tracing off. --trace 1 is the separate
// traced run: it replays the workload's batch sequence through the public
// functions of each module with a span around every call and reports the
// per-layer metrics. Both check their outputs against the digests recorded
// in FILE and against bit-identical reruns. The last stdout line is one
// JSON object with the keys correct, attempted, failed and metrics; the
// exit code is nonzero when any check failed. README.md defines every
// metric.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/service.hpp"
#include "datasets/catalog.hpp"
#include "fault/harness.hpp"
#include "obs/live/event_log.hpp"
#include "obs/metrics.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "tensor/matrix.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using gt::frameworks::RunReport;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;
/// Training batches per measured chunk (one train_batches call). The first
/// chunk is the digest reference window.
constexpr std::size_t kChunkBatches = kReferenceBatches;
/// Post-warm-up batches the traced run replays for a training workload.
constexpr std::size_t kTraceBatches = 24;

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string references;
  std::string out_dir = ".bench_build/out";
  std::string git_sha = "unknown";
};

struct Digest {
  std::uint64_t params = 0;
  std::uint64_t reports = 0;
  bool operator==(const Digest&) const = default;
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Reference digests, one line per (workload, seed):
///   <workload> <seed> <params digest hex> <reports digest hex>
std::optional<Digest> load_reference(const std::string& path,
                                     const std::string& workload,
                                     std::uint64_t seed) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, params, reports;
    std::uint64_t s = 0;
    if (!(fields >> name >> s >> params >> reports)) continue;
    if (name == workload && s == seed)
      return Digest{std::stoull(params, nullptr, 16),
                    std::stoull(reports, nullptr, 16)};
  }
  return std::nullopt;
}

/// Correctness gate: digest comparisons and failed operations, counted
/// against everything attempted.
struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) ++failed;
    std::printf("check: %-60s %s\n", what.c_str(), ok ? "ok" : "MISMATCH");
  }
  void operations(std::uint64_t n, std::uint64_t bad) {
    attempted += n;
    failed += bad;
  }
};

/// Metric sink: prints every metric as it is produced and keeps the ones
/// the final JSON line carries.
class Metrics {
 public:
  explicit Metrics(std::vector<std::string> json_names)
      : json_names_(std::move(json_names)) {}

  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = {}) {
    std::printf("metric: %-32s %16.6f %-8s %s\n", name.c_str(), value,
                unit.c_str(), note.c_str());
    values_[name] = {value, unit};
  }

  std::string json() const {
    std::string out = "{";
    bool first = true;
    for (const std::string& name : json_names_) {
      const auto it = values_.find(name);
      if (it == values_.end()) continue;
      char num[64];
      const auto res =
          std::to_chars(num, num + sizeof num, it->second.first);
      out += first ? "" : ", ";
      out += "\"" + name + "\": {\"value\": " + std::string(num, res.ptr) +
             ", \"unit\": \"" + it->second.second + "\"}";
      first = false;
    }
    return out + "}";
  }

  bool complete() const {
    return std::all_of(json_names_.begin(), json_names_.end(),
                       [&](const std::string& n) { return values_.count(n); });
  }

 private:
  std::vector<std::string> json_names_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

// Metric names the final JSON line carries (BENCHMARK.json lists the same).
const std::vector<std::string> kEndToEnd = {"setup_s", "batches_per_s",
                                            "sim_slowdown", "peak_rss_mb"};
const std::vector<std::string> kPerLayer = {
    "datasets.generate_ms",      "core.warmup_ms",
    "core.exec_busy_frac",       "sampling.sample_us",
    "sampling.reindex_us",       "sampling.lookup_us",
    "sampling.edges",            "sampling.ns_per_edge",
    "pipeline.plan_us",          "frameworks.prepare_us",
    "frameworks.prepare_other_us", "frameworks.execute_us",
    "frameworks.execute_other_us", "frameworks.session_us",
    "dfg.forward_us",            "gpusim.kernel_launches",
    "gpusim.blocks",             "gpusim.sm_cache_bytes",
    "gpusim.host_ns_per_block",  "gpusim.sm_cache_hit_ratio",
    "kernels.flops",             "cache.hit_rate",
    "cache.evictions",           "tensor.heap_allocs",
    "tensor.arena_peak_kb",      "serving.mean_fill",
    "obs.snapshots",             "obs.events",
    "trace.overhead_frac"};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_metadata(const Workload& w, const Args& a) {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#ifdef PERFBENCH_BUILD_TYPE
  const char* build_type = PERFBENCH_BUILD_TYPE;
#else
  const char* build_type = "unknown";
#endif
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::printf(
      "meta: workload=%s dataset=%s seed=%llu seconds=%g trace=%d "
      "build_type=%s optimized=%s compiler=\"%s\" nproc=%u workers=%zu "
      "compute_threads=%zu git_sha=%s\n",
      w.name.c_str(), w.dataset.c_str(),
      static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0,
      build_type, optimized ? "yes" : "no", compiler.c_str(),
      std::thread::hardware_concurrency(), w.workers, w.compute_threads,
      a.git_sha.c_str());
  if (!optimized)
    std::printf("WARNING: non-optimised build; host timings are not "
                "comparable with an optimised one\n");
}

void check_reference(Gate& gate, const Args& a, const Workload& w,
                     const Digest& d) {
  std::printf("reference: %s %llu %s %s\n", w.name.c_str(),
              static_cast<unsigned long long>(a.seed), hex(d.params).c_str(),
              hex(d.reports).c_str());
  const std::optional<Digest> ref = load_reference(a.references, w.name, a.seed);
  if (ref)
    gate.check(*ref == d, "digest equals the recorded reference");
  else
    std::printf("check: no reference recorded for seed %llu; gated by the "
                "rerun comparisons only\n",
                static_cast<unsigned long long>(a.seed));
}

// ---------------------------------------------------------------------------
// Untraced run: end-to-end metrics.

void run_untraced(const Workload& w, const Args& a, Gate& gate, Metrics& m) {
  const std::string obs_dir = a.out_dir + "/obs";
  const gt::serving::ServeConfig cfg = serve_config(a.seed);

  // Set-up: dataset generation + service construction + warm-up, several
  // times; the last service is the one measured.
  std::unique_ptr<gt::GnnService> svc;
  std::vector<double> setup_s;
  std::vector<Digest> setup_digests;
  std::vector<RunReport> warm_reports;
  gt::serving::ServeReport first_serve;
  for (int i = 0; i < kSetups; ++i) {
    svc.reset();
    const Clock::time_point t0 = Clock::now();
    gt::Dataset data = gt::generate(w.dataset, a.seed);
    const gt::models::GnnModelConfig model = model_for(data.spec);
    svc = std::make_unique<gt::GnnService>(
        std::move(data), model,
        service_options(w, a.seed, w.workers, w.compute_threads, w.obs_armed,
                        obs_dir));
    if (w.serve)
      first_serve = svc->serve(cfg);
    else
      warm_reports = svc->train_batches(kWarmupBatches);
    setup_s.push_back(seconds_since(t0));
    setup_digests.push_back({gt::fault::params_digest(svc->params()),
                             w.serve ? serve_digest(first_serve)
                                     : reports_digest(warm_reports)});
  }
  for (int i = 1; i < kSetups; ++i)
    gate.check(setup_digests[i] == setup_digests[0],
               "set-up " + std::to_string(i) + " digest equals set-up 0");

  // Measured window: chunks of batches until --seconds have passed.
  // Throughput and slowdown are totals over the window; the per-chunk
  // figures are printed to show the run-to-run noise.
  std::vector<double> rates, slowdowns;
  double wall_s = 0.0, virtual_s = 0.0;
  std::size_t measured_batches = 0;
  std::vector<RunReport> window;  // training reference window
  Digest digest;
  if (w.serve) {
    digest = setup_digests.back();
    gate.operations(first_serve.arrived, first_serve.degraded);
  } else {
    gate.operations(warm_reports.size(),
                    std::count_if(warm_reports.begin(), warm_reports.end(),
                                  [](const RunReport& r) { return !r.ok(); }));
  }
  gt::obs::Histogram& e2e_hist =
      gt::obs::metrics().histogram("frameworks.e2e_us");
  const Clock::time_point m0 = Clock::now();
  while (rates.size() < 3 || seconds_since(m0) < a.seconds) {
    const Clock::time_point c0 = Clock::now();
    double virtual_us = 0.0;
    std::size_t batches = 0;
    if (w.serve) {
      const double sum0 = e2e_hist.sum();
      const gt::serving::ServeReport rep = svc->serve(cfg);
      virtual_us = e2e_hist.sum() - sum0;
      batches = rep.batches + cfg.warmup_batches;
      gate.operations(rep.arrived, rep.degraded);
    } else {
      const std::vector<RunReport> reps = svc->train_batches(kChunkBatches);
      std::uint64_t bad = 0;
      for (const RunReport& r : reps) {
        virtual_us += r.end_to_end_us;
        bad += !r.ok();
      }
      batches = reps.size();
      gate.operations(reps.size(), bad);
      if (window.empty()) window = reps;
    }
    const double wall = seconds_since(c0);
    wall_s += wall;
    virtual_s += virtual_us / 1e6;
    measured_batches += batches;
    rates.push_back(static_cast<double>(batches) / wall);
    slowdowns.push_back(wall * 1e6 / virtual_us);
    if (!w.serve && digest.params == 0) {
      std::vector<RunReport> all = warm_reports;
      all.insert(all.end(), window.begin(), window.end());
      digest = {gt::fault::params_digest(svc->params()), reports_digest(all)};
    }
  }
  std::printf("measured: %zu chunks in %.3f s; batches/s per chunk:",
              rates.size(), seconds_since(m0));
  for (const double r : rates) std::printf(" %.2f", r);
  std::printf("; sim_slowdown per chunk:");
  for (const double r : slowdowns) std::printf(" %.2f", r);
  std::printf("\n");
  svc.reset();

  // Rerun at another worker count and one compute thread, observability
  // off: the modeled outputs must not move.
  {
    gt::Dataset data = gt::generate(w.dataset, a.seed);
    const gt::models::GnnModelConfig model = model_for(data.spec);
    gt::GnnService alt(std::move(data), model,
                       service_options(w, a.seed, w.serve ? 2 : 1, 1, false,
                                       obs_dir));
    Digest d;
    if (w.serve) {
      d.reports = serve_digest(alt.serve(cfg));
    } else {
      d.reports = reports_digest(
          alt.train_batches(kWarmupBatches + kReferenceBatches));
    }
    d.params = gt::fault::params_digest(alt.params());
    gate.check(d == digest, std::string("rerun at workers=") +
                                (w.serve ? "2" : "1") +
                                " compute_threads=1 matches");
  }
  check_reference(gate, a, w, digest);

  m.add("setup_s", median(setup_s), "s", "[host] median of 3 set-ups");
  m.add("batches_per_s", static_cast<double>(measured_batches) / wall_s,
        "1/s",
        "[host] " + std::to_string(measured_batches) + " batches after warm-up");
  m.add("sim_slowdown", wall_s / virtual_s, "us/us",
        "[host/virtual] host us per modeled batch e2e us");
  m.add("peak_rss_mb", peak_rss_mb(), "MiB", "[host]");
  m.add("failed_frac",
        static_cast<double>(gate.failed) / static_cast<double>(gate.attempted),
        "fraction",
        std::to_string(gate.failed) + " of " + std::to_string(gate.attempted));
  if (w.serve) {
    const std::string n = "n=" + std::to_string(first_serve.completed);
    m.add("virtual_p50_ticks", first_serve.p50_latency_ticks, "ticks",
          "[virtual] " + n);
    m.add("virtual_p99_ticks", first_serve.p99_latency_ticks, "ticks",
          "[virtual] " + n);
    m.add("goodput_rps", first_serve.goodput_rps, "req/s", "[virtual]");
    m.add("shed_frac", first_serve.shed_rate(), "fraction",
          "[virtual] " + std::to_string(first_serve.shed()) + " of " +
              std::to_string(first_serve.arrived));
  } else {
    double sum = 0.0;
    for (const RunReport& r : window) sum += r.end_to_end_us;
    m.add("virtual_e2e_us", sum / static_cast<double>(window.size()), "us",
          "[virtual] mean of " + std::to_string(window.size()) +
              " post-warm-up batches");
  }
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics.

struct Envelopes {
  double prepare_us = 0.0;
  double execute_us = 0.0;
};

void run_traced(const Workload& w, const Args& a, Gate& gate, Metrics& m) {
  const std::string obs_dir = a.out_dir + "/obs";
  const gt::serving::ServeConfig cfg = serve_config(a.seed);
  const gt::sampling::CacheConfig cache = cache_config(w);

  Clock::time_point t0 = Clock::now();
  const gt::Dataset data = gt::generate(w.dataset, a.seed);
  m.add("datasets.generate_ms", seconds_since(t0) * 1e3, "ms");
  const gt::models::GnnModelConfig model = model_for(data.spec);

  // 1) The service itself, untraced: reference digests, warm-up time,
  //    execute share of the ring, observability counts.
  Digest svc_digest;
  double exec_busy = 0.0;
  double armed_s = 0.0;
  {
    const std::uint64_t events0 = gt::obs::live::EventLog::global().emitted();
    gt::GnnService svc(gt::Dataset(data), model,
                       service_options(w, a.seed, w.workers,
                                       w.compute_threads, w.obs_armed,
                                       obs_dir));
    if (w.serve) {
      t0 = Clock::now();
      const gt::serving::ServeReport served = svc.serve(cfg);
      armed_s = seconds_since(t0);
      m.add("core.warmup_ms", armed_s * 1e3, "ms", "first serve() call");
      svc_digest.reports = serve_digest(served);
      m.add("obs.snapshots",
            static_cast<double>(
                svc.telemetry()->snapshotter()->snapshots_emitted()),
            "count");
      m.add("obs.events",
            static_cast<double>(gt::obs::live::EventLog::global().emitted() -
                                events0),
            "count");
      m.add("serving.mean_fill", served.mean_batch_fill, "fraction");
    } else {
      t0 = Clock::now();
      std::vector<RunReport> reports = svc.train_batches(kWarmupBatches);
      m.add("core.warmup_ms", seconds_since(t0) * 1e3, "ms");
      t0 = Clock::now();
      const std::vector<RunReport> measured = svc.train_batches(kTraceBatches);
      const double wall_us = seconds_since(t0) * 1e6;
      double exec_us = 0.0;
      for (const RunReport& r : measured) exec_us += r.host_execute_us;
      exec_busy = exec_us / wall_us;
      reports.insert(reports.end(), measured.begin(), measured.end());
      svc_digest.reports = reports_digest(reports);
      m.add("obs.snapshots", 0.0, "count", "observability off");
      m.add("obs.events", 0.0, "count", "observability off");
      m.add("serving.mean_fill", 0.0, "fraction", "no serving");
    }
    svc_digest.params = gt::fault::params_digest(svc.params());
  }
  if (w.serve) {
    // The same serve with the process-wide ledger and event log disarmed
    // (the armed service above has released them).
    gt::GnnService plain(gt::Dataset(data), model,
                         service_options(w, a.seed, w.workers,
                                         w.compute_threads, false, obs_dir));
    t0 = Clock::now();
    const gt::serving::ServeReport plain_rep = plain.serve(cfg);
    const double plain_s = seconds_since(t0);
    gate.check(serve_digest(plain_rep) == svc_digest.reports,
               "observability armed and disarmed serve agree");
    m.add("obs.overhead_frac", armed_s / plain_s - 1.0, "fraction",
          "armed serve() wall over disarmed, minus 1");
  }

  // The batch sequence the service ran. Serving: one full-size warm-up
  // batch, then the planner's batches, planned with the estimate the
  // warm-up batch yields.
  std::vector<gt::frameworks::BatchSpec> specs;
  const std::size_t warmup = w.serve ? cfg.warmup_batches : kWarmupBatches;
  if (w.serve) {
    specs.push_back(batch_spec(0,
                               cfg.batch.max_batch_requests *
                                   static_cast<std::size_t>(
                                       cfg.vertices_per_request),
                               a.seed, true));
  } else {
    for (std::size_t i = 0; i < kWarmupBatches + kTraceBatches; ++i)
      specs.push_back(batch_spec(i, gt::ServiceOptions{}.batch_size, a.seed,
                                 false));
  }

  // 2) The real backend's two phases, untraced.
  FrameworkRun framework(data, model, a.seed, cache);
  Envelopes plain_env;
  std::vector<RunReport> fw_reports;
  std::vector<gt::serving::PlannedBatch> planned;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Envelopes e;
    fw_reports.push_back(framework.run(specs[i], &e.prepare_us, &e.execute_us));
    if (i >= warmup) {
      plain_env.prepare_us += e.prepare_us;
      plain_env.execute_us += e.execute_us;
    }
    if (w.serve && i == 0) {
      const gt::serving::Tick est = serve_estimate(fw_reports[0]);
      gt::serving::ServePlanner planner(cfg, est);
      t0 = Clock::now();
      planned = plan_serve(planner);
      m.add("serving.plan_us_per_request",
            seconds_since(t0) * 1e6 / static_cast<double>(cfg.requests), "us",
            "standalone ServePlanner replay");
      for (std::size_t b = 0; b < planned.size(); ++b)
        specs.push_back(batch_spec(b + 1, planned[b].total_vertices, a.seed,
                                   true));
    }
  }
  const std::size_t window = specs.size() - warmup;

  // Digest of a replayed sequence, comparable with the service's.
  auto replay_digest = [&](const std::vector<RunReport>& reports,
                           const gt::models::ModelParams& params) {
    Digest d;
    d.params = gt::fault::params_digest(params);
    if (w.serve) {
      const gt::serving::Tick est = serve_estimate(reports[0]);
      gt::serving::ServePlanner planner(cfg, est);
      const std::vector<gt::serving::PlannedBatch> p = plan_serve(planner);
      d.reports = serve_digest(price_serve(
          cfg, est, planner, p,
          std::vector<RunReport>(reports.begin() + 1, reports.end())));
    } else {
      d.reports = reports_digest(reports);
    }
    return d;
  };
  gate.check(replay_digest(fw_reports, framework.params()) == svc_digest,
             "untraced backend replay matches the service");

  // 3) The traced replay.
  SpanRecorder spans;
  TracedReplay replay(data, model, a.seed, cache, spans);
  std::vector<RunReport> tr_reports;
  std::uint64_t heap0 = 0, evictions0 = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i == warmup) {
      spans.clear();
      replay.reset_counts();
      heap0 = gt::Matrix::heap_allocations();
      evictions0 = replay.cache_evictions();
    }
    tr_reports.push_back(replay.run(specs[i]));
  }
  const double heap_allocs =
      static_cast<double>(gt::Matrix::heap_allocations() - heap0);
  const std::uint64_t evictions = replay.cache_evictions() - evictions0;
  gate.check(replay_digest(tr_reports, replay.params()) == svc_digest,
             "traced replay matches the service");
  std::filesystem::create_directories(a.out_dir);
  const std::string span_path = a.out_dir + "/spans-" + w.name + "-" +
                                std::to_string(a.seed) + ".json";
  if (!spans.write_json(span_path))
    std::printf("warning: could not write %s\n", span_path.c_str());

  // Per-layer metrics: self time per batch of each span name.
  const double n = static_cast<double>(window);
  const std::map<std::string, SpanRecorder::Totals> t = spans.totals();
  auto self_us = [&](const char* name) {
    const auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second.self_ns / 1e3 / n;
  };
  auto total_us = [&](const char* name) {
    const auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second.total_ns / 1e3 / n;
  };
  const DeviceCounts& c = replay.counts();

  m.add("core.exec_busy_frac",
        w.serve ? plain_env.execute_us /
                      (plain_env.prepare_us + plain_env.execute_us)
                : exec_busy,
        "fraction",
        w.serve ? "execute share of the serial batch loop"
                : "sum host_execute_us / window wall, service ring");
  m.add("sampling.sample_us", self_us("sampling.sample"), "us");
  m.add("sampling.reindex_us", self_us("sampling.reindex"), "us");
  m.add("sampling.lookup_us", self_us("sampling.lookup"), "us");
  m.add("sampling.edges", static_cast<double>(c.sampled_edges) / n, "count");
  m.add("sampling.ns_per_edge",
        self_us("sampling.sample") * n * 1e3 /
            static_cast<double>(c.sampled_edges),
        "ns");
  m.add("pipeline.plan_us", self_us("pipeline.plan"), "us");
  m.add("frameworks.prepare_us", total_us("frameworks.prepare"), "us");
  m.add("frameworks.prepare_other_us", self_us("frameworks.prepare"), "us");
  m.add("frameworks.execute_us", total_us("frameworks.execute"), "us");
  m.add("frameworks.execute_other_us", self_us("frameworks.execute"), "us");
  m.add("frameworks.session_us", self_us("frameworks.session"), "us");
  m.add("dfg.forward_us", self_us("dfg.forward"), "us");
  if (!w.serve) {
    m.add("frameworks.loss_us", self_us("frameworks.loss"), "us");
    m.add("frameworks.sgd_us", self_us("frameworks.sgd"), "us");
    m.add("dfg.backward_us", self_us("dfg.backward"), "us");
  }
  if (cache.budget_bytes > 0) {
    m.add("cache.lookup_us", self_us("cache.lookup"), "us");
    m.add("cache.gather_us", self_us("cache.gather"), "us");
    m.add("cache.assemble_us", self_us("cache.assemble"), "us");
    m.add("cache.commit_us", self_us("cache.commit"), "us");
  }
  const double sm_bytes =
      static_cast<double>(c.sm_cache_hit_bytes + c.sm_cache_loaded_bytes);
  m.add("gpusim.kernel_launches", static_cast<double>(c.kernel_launches) / n,
        "count");
  m.add("gpusim.blocks", static_cast<double>(c.blocks) / n, "count");
  m.add("gpusim.sm_cache_bytes", sm_bytes / n, "bytes");
  m.add("gpusim.host_ns_per_block",
        (total_us("dfg.forward") + total_us("dfg.backward")) * n * 1e3 /
            static_cast<double>(c.blocks),
        "ns");
  m.add("gpusim.sm_cache_hit_ratio",
        sm_bytes > 0 ? static_cast<double>(c.sm_cache_hit_bytes) / sm_bytes
                     : 0.0,
        "fraction", "[modeled]");
  m.add("kernels.flops", static_cast<double>(c.flops) / n, "count",
        "[modeled]");
  m.add("cache.hit_rate",
        c.cache_rows > 0 ? static_cast<double>(c.cache_hit_rows) /
                               static_cast<double>(c.cache_rows)
                         : 0.0,
        "fraction", cache.budget_bytes > 0 ? "[modeled]" : "no cache");
  m.add("cache.evictions", static_cast<double>(evictions) / n, "count",
        cache.budget_bytes > 0 ? "[modeled]" : "no cache");
  m.add("tensor.heap_allocs", heap_allocs / n, "count", "Matrix heap allocs");
  m.add("tensor.arena_peak_kb",
        static_cast<double>(c.arena_peak_bytes) / 1024.0, "KiB");
  const double traced_us = total_us("frameworks.prepare") +
                           total_us("frameworks.execute");
  const double plain_us = (plain_env.prepare_us + plain_env.execute_us) / n;
  m.add("trace.overhead_frac", traced_us / plain_us - 1.0, "fraction",
        "traced replay over untraced backend phases, minus 1");

  // Each envelope's split, remainder included, sums to the envelope.
  for (const char* env : {"frameworks.prepare", "frameworks.execute"}) {
    const std::map<std::string, double> parts = spans.children_ns(env);
    double sum = self_us(env);
    std::string line = std::string(env) + "_us " +
                       std::to_string(total_us(env)) + " =";
    for (const auto& [name, ns] : parts) {
      sum += ns / 1e3 / n;
      line += " " + name + " " + std::to_string(ns / 1e3 / n) + " +";
    }
    line += " other " + std::to_string(self_us(env));
    std::printf("split: %s\n", line.c_str());
    gate.check(std::abs(sum - total_us(env)) <= 1e-6 * total_us(env) + 1e-9,
               std::string(env) + " split sums to the envelope");
  }
  std::printf("traced: %zu window batches after %zu warm-up; spans in %s\n",
              window, warmup, span_path.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_gt --workload NAME --seed N --seconds S "
               "--trace 0|1 [--references FILE] [--out-dir DIR] "
               "[--git-sha SHA]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') return usage();
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || a.seconds <= 0) return usage();
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return usage();
      a.trace = val == "1";
    } else if (key == "--references") {
      a.references = val;
    } else if (key == "--out-dir") {
      a.out_dir = val;
    } else if (key == "--git-sha") {
      a.git_sha = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0) return usage();
  const auto& all = workloads();
  const auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return w.name == a.workload;
  });
  if (it == all.end()) return usage();
  const Workload& w = *it;
  a.out_dir += "/" + w.name + "-" + std::to_string(a.seed);
  std::filesystem::create_directories(a.out_dir + "/obs/telemetry");

  print_metadata(w, a);
  Gate gate;
  Metrics metrics(a.trace ? kPerLayer : kEndToEnd);
  if (a.trace)
    run_traced(w, a, gate, metrics);
  else
    run_untraced(w, a, gate, metrics);

  const bool correct = gate.failed == 0;
  if (!metrics.complete()) {
    std::fprintf(stderr, "perfbench: a reported metric is missing\n");
    return 1;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(gate.attempted),
      static_cast<unsigned long long>(gate.failed), metrics.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
