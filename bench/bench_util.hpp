// Shared helpers for the figure/table reproduction binaries.
//
// Every binary prints (a) the measured rows for its figure and (b) a
// paper-vs-measured summary line, so EXPERIMENTS.md can be regenerated by
// pasting bench output. The same header()/claim() calls also record
// structured rows into gt::obs::BenchReporter, so a run with GT_BENCH_OUT
// set additionally produces a schema-versioned BENCH_*.json that
// tools/bench_diff can gate regressions on — no per-binary changes needed
// beyond optional dataset/framework tagging via row().
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/graphtensor.hpp"
#include "obs/obs_hook.hpp"
#include "obs/report.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace gt::bench {

/// Value of a GT_* output variable, or "" when unset.
inline std::string env_path(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr ? env : "";
}

// One environment-driven hook per bench binary (inline => deduplicated
// across TUs); inert unless a GT_*_OUT variable names a file.
inline obs::ObsHook obs_hook{env_path("GT_TRACE_OUT"),
                             env_path("GT_METRICS_OUT"),
                             env_path("GT_BENCH_OUT"),
                             env_path("GT_KERNEL_LEDGER_OUT")};

inline const std::vector<std::string>& light_datasets() {
  static const std::vector<std::string> names = {
      "products", "citation2", "papers", "amazon", "reddit2"};
  return names;
}

inline const std::vector<std::string>& heavy_datasets() {
  static const std::vector<std::string> names = {
      "gowalla", "google", "roadnet-ca", "wiki-talk", "livejournal"};
  return names;
}

inline std::vector<std::string> all_datasets() {
  std::vector<std::string> names = light_datasets();
  names.insert(names.end(), heavy_datasets().begin(), heavy_datasets().end());
  return names;
}

/// Default evaluation seed (shared so every bench sees identical batches).
inline constexpr std::uint64_t kSeed = 42;

/// Monotonic stopwatch for *host* wall-clock rows. Unlike the simulated
/// latencies every figure reports, wall-clock varies with machine load and
/// the compute-engine thread count — keep such rows out of any bench whose
/// JSON is gated bit-stable in CI (bench_fig12_breakdown).
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void reset() { start_ = std::chrono::steady_clock::now(); }
  double elapsed_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Run one batch through a fresh framework instance.
inline frameworks::RunReport run_one(const std::string& framework,
                                     const Dataset& data,
                                     const models::GnnModelConfig& model,
                                     frameworks::BatchSpec spec = {}) {
  models::ModelParams params(model, data.spec.feature_dim, 7);
  auto fw = frameworks::make_framework(framework);
  return fw->run_batch(data, model, params, spec);
}

/// Model instances sized for a dataset (paper: hidden 64, scaled to 8).
inline models::GnnModelConfig gcn_for(const Dataset& d) {
  return models::gcn(d.spec.hidden_dim, d.spec.output_dim);
}
inline models::GnnModelConfig ngcf_for(const Dataset& d) {
  return models::ngcf(d.spec.hidden_dim, d.spec.output_dim);
}

/// Recorded units drop decoration the printed line carries (" fraction"
/// prints nicely after a number; the JSON field wants "fraction").
inline std::string clean_unit(const char* unit) {
  std::string u = unit;
  while (!u.empty() && u.front() == ' ') u.erase(u.begin());
  return u;
}

/// Print the standard claim line: what the paper reports vs what we got.
/// Also records the pair as a structured report row under the figure most
/// recently announced by header().
inline void claim(const char* what, double paper, double measured,
                  const char* unit = "x") {
  std::printf("  paper: %s = %.2f%s | measured: %.2f%s\n", what, paper, unit,
              measured, unit);
  obs::BenchReporter::global().add_claim(what, paper, measured,
                                         clean_unit(unit));
}

/// Record a dataset/framework-tagged report row without printing (the
/// binaries already render these in their tables).
inline void row(const std::string& metric, const std::string& dataset,
                const std::string& framework, double paper, double measured,
                const char* unit = "x") {
  obs::BenchRow r;
  r.metric = metric;
  r.dataset = dataset;
  r.framework = framework;
  r.unit = clean_unit(unit);
  r.paper = paper;
  r.measured = measured;
  obs::BenchReporter::global().add_row(std::move(r));
}

inline void header(const char* figure, const char* description) {
  std::printf("==== %s: %s ====\n\n", figure, description);
  obs::BenchReporter::global().set_context(figure, description);
}

}  // namespace gt::bench
