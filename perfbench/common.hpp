// Shared pieces of the host wall-clock benchmark: the workload table, the
// service/serve configurations each workload runs, and the FNV-1a digests
// the correctness gate compares against recorded references.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/service.hpp"
#include "frameworks/framework.hpp"
#include "models/config.hpp"
#include "serving/planner.hpp"
#include "serving/types.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  std::string dataset;
  bool serve = false;            // GnnService::serve instead of train_batches
  std::size_t workers = 2;       // ServiceOptions::workers
  std::size_t compute_threads = 2;
  std::size_t cache_budget_bytes = 0;  // 0 = no embedding cache
  bool obs_armed = false;        // live telemetry + kernel ledger
};

/// The three benchmark workloads (README.md says why each exists).
inline const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"train-wikitalk", "wiki-talk", false, 2, 2, 0, false},
      {"train-social-cached", "social", false, 2, 2, 4u << 20, false},
      {"serve-products", "products", true, 1, 2, 0, true},
  };
  return all;
}

/// Training warm-up: past the DKP fit (Prepro-GT fits after 4 batches) and
/// long enough that both worker contexts stop growing their arenas.
constexpr std::size_t kWarmupBatches = 8;
/// Post-warm-up batches whose reports and resulting parameters form the
/// digest-checked reference window of a training run.
constexpr std::size_t kReferenceBatches = 16;
/// Learning rate of service_cli, so digests describe the same training.
constexpr float kLearningRate = 0.1f;

inline gt::models::GnnModelConfig model_for(const gt::DatasetSpec& spec) {
  return gt::models::gcn(spec.hidden_dim, spec.output_dim);
}

inline gt::sampling::CacheConfig cache_config(const Workload& w) {
  gt::sampling::CacheConfig cache;
  cache.budget_bytes = w.cache_budget_bytes;
  if (cache.budget_bytes > 0) {
    cache.policy = gt::sampling::CachePolicy::kTiered;
    cache.prefetch = true;
  }
  return cache;
}

/// Service options of a workload. `obs_dir` receives the telemetry
/// snapshots and kernel ledger when the workload arms observability and
/// `arm_obs` is set.
inline gt::ServiceOptions service_options(const Workload& w,
                                          std::uint64_t seed,
                                          std::size_t workers,
                                          std::size_t compute_threads,
                                          bool arm_obs,
                                          const std::string& obs_dir) {
  gt::ServiceOptions o;
  o.framework = "Prepro-GT";
  o.seed = seed;
  o.learning_rate = kLearningRate;
  o.workers = workers;
  o.compute_threads = compute_threads;
  const gt::sampling::CacheConfig cache = cache_config(w);
  o.cache_budget_bytes = cache.budget_bytes;
  o.cache_policy = cache.policy;
  o.cache_prefetch = cache.prefetch;
  if (arm_obs) {
    o.telemetry.out_dir = obs_dir + "/telemetry";
    o.telemetry.interval = 1;
    o.kernel_ledger_out = obs_dir + "/kernels.json";
  }
  return o;
}

/// Bursty open-loop traffic near saturation on products: the same
/// configuration as `service_cli products GCN Prepro-GT --serve
/// --arrival=bursty --rate=1200 --slo-ticks=20000 --requests=6000`.
inline gt::serving::ServeConfig serve_config(std::uint64_t seed) {
  gt::serving::ServeConfig c;
  c.arrival.kind = gt::serving::ArrivalKind::kBursty;
  c.arrival.rate_rps = 1200.0;
  c.arrival.seed = seed;
  c.slo_ticks = 20'000;
  c.requests = 6'000;
  return c;
}

/// The batch specs GnnService::next_spec hands out, for replays.
inline gt::frameworks::BatchSpec batch_spec(std::uint64_t index,
                                            std::size_t batch_size,
                                            std::uint64_t seed,
                                            bool inference) {
  gt::frameworks::BatchSpec s;
  s.batch_size = batch_size;
  s.batch_index = index;
  s.seed = seed;
  s.order = gt::frameworks::OrderPolicy::kDynamic;
  s.learning_rate = kLearningRate;
  s.inference = inference;
  return s;
}

/// FNV-1a over raw bytes, the same construction as fault::params_digest.
class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ull;
    }
  }
  template <class T>
  void add(const T& v) {
    unsigned char raw[sizeof(T)];
    std::memcpy(raw, &v, sizeof(T));
    bytes(raw, sizeof(T));
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// The modeled (virtual-clock) fields of a batch report sequence. Host
/// timings are excluded: they differ on every run.
inline std::uint64_t reports_digest(
    const std::vector<gt::frameworks::RunReport>& reports) {
  Fnv f;
  for (const gt::frameworks::RunReport& r : reports) {
    f.add(r.ok());
    f.add(r.end_to_end_us);
    f.add(r.kernel_total_us);
    f.add(r.fwp_us);
    f.add(r.bwp_us);
    f.add(r.loss);
    f.add(r.flops);
    f.add(r.kernel_launches);
  }
  return f.value();
}

/// The serve outcome stream plus its latency / goodput summary.
inline std::uint64_t serve_digest(const gt::serving::ServeReport& rep) {
  Fnv f;
  for (const gt::serving::RequestRecord& r : rep.records) {
    f.add(r.id);
    f.add(r.arrival_tick);
    f.add(static_cast<std::uint8_t>(r.outcome));
    f.add(r.latency_ticks);
    f.add(r.batch);
  }
  f.add(rep.completed);
  f.add(rep.batches);
  f.add(rep.p50_latency_ticks);
  f.add(rep.p99_latency_ticks);
  f.add(rep.goodput_rps);
  return f.value();
}

}  // namespace perfbench
