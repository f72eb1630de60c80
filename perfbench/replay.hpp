// Replays of a workload's batch sequence outside GnnService, for the traced
// run's per-layer numbers.
//
//  * FrameworkRun drives the real Prepro-GT backend through its two public
//    phases (prepare_batch / execute_prepared) and times only those two
//    envelopes: the untraced reference for the tracing overhead.
//  * TracedReplay performs the same two phases step by step through the
//    public functions they are built from (sampler, reindex, lookup,
//    schedule pricing, device session, cache hierarchy, layer executor,
//    loss head, SGD stage) with a span around each call. Its trained
//    parameters and modeled reports must equal the service's; the traced
//    run checks that, so the per-layer numbers describe the same program.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dfg/cost_model.hpp"
#include "frameworks/framework.hpp"
#include "pipeline/batch_context.hpp"
#include "sampling/cache_hierarchy.hpp"
#include "sampling/lookup.hpp"
#include "serving/planner.hpp"
#include "spans.hpp"

namespace perfbench {

class FrameworkRun {
 public:
  FrameworkRun(const gt::Dataset& data, const gt::models::GnnModelConfig& model,
               std::uint64_t seed, const gt::sampling::CacheConfig& cache);

  /// One batch; adds the two phases' host time to the out-parameters.
  gt::frameworks::RunReport run(const gt::frameworks::BatchSpec& spec,
                                double* prepare_us, double* execute_us);

  const gt::models::ModelParams& params() const noexcept { return params_; }

 private:
  const gt::Dataset& data_;
  gt::models::GnnModelConfig model_;
  gt::models::ModelParams params_;
  std::unique_ptr<gt::frameworks::Framework> backend_;
  gt::pipeline::BatchContext ctx_;
};

/// Modeled device work of the replayed batches (counts, not times).
struct DeviceCounts {
  std::uint64_t kernel_launches = 0;
  std::uint64_t blocks = 0;
  std::uint64_t sm_cache_hit_bytes = 0;
  std::uint64_t sm_cache_loaded_bytes = 0;
  std::uint64_t flops = 0;
  std::uint64_t sampled_edges = 0;
  std::uint64_t cache_rows = 0;
  std::uint64_t cache_hit_rows = 0;
  std::size_t arena_peak_bytes = 0;
};

class TracedReplay {
 public:
  TracedReplay(const gt::Dataset& data,
               const gt::models::GnnModelConfig& model, std::uint64_t seed,
               const gt::sampling::CacheConfig& cache, SpanRecorder& spans);

  gt::frameworks::RunReport run(const gt::frameworks::BatchSpec& spec);

  const gt::models::ModelParams& params() const noexcept { return params_; }
  const DeviceCounts& counts() const noexcept { return counts_; }
  void reset_counts() { counts_ = {}; }
  /// Committed evictions of the cache hierarchy (0 without a cache).
  std::uint64_t cache_evictions() const noexcept {
    return hierarchy_ ? hierarchy_->stats().evictions : 0;
  }

 private:
  void prepare(const gt::frameworks::BatchSpec& spec);
  gt::frameworks::RunReport execute(const gt::frameworks::BatchSpec& spec);

  const gt::Dataset& data_;
  gt::models::GnnModelConfig model_;
  gt::models::ModelParams params_;
  gt::sampling::CacheConfig cache_;
  gt::pipeline::PlanOptions plan_;
  gt::sampling::EmbeddingLookup lookup_;
  gt::dfg::DkpCostModel cost_model_;
  std::uint64_t batches_seen_ = 0;
  std::unique_ptr<gt::sampling::CacheHierarchy> hierarchy_;
  gt::pipeline::BatchContext ctx_;
  SpanRecorder& spans_;
  DeviceCounts counts_;
};

/// Planned batches of one serve() call, replayed through a standalone
/// ServePlanner with the admission estimate the service derived from its
/// warm-up batch. The planner is left finished, holding the shed ledger.
std::vector<gt::serving::PlannedBatch> plan_serve(
    gt::serving::ServePlanner& planner);

/// The admission estimate serve() freezes after its single warm-up batch.
gt::serving::Tick serve_estimate(const gt::frameworks::RunReport& warmup);

/// Prices completions on the measured clock exactly as GnnService::serve
/// does, from a finished planner and one report per planned batch.
gt::serving::ServeReport price_serve(
    const gt::serving::ServeConfig& config, gt::serving::Tick est,
    gt::serving::ServePlanner& planner,
    const std::vector<gt::serving::PlannedBatch>& planned,
    const std::vector<gt::frameworks::RunReport>& reports);

}  // namespace perfbench
