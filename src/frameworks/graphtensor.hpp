// The three GraphTensor variants of the evaluation (§VI):
//  * Base-GT    — NAPA kernels, static aggregation-first placement,
//                 type-parallel (barriered) preprocessing.
//  * Dynamic-GT — Base-GT + the kernel orchestrator: the model DFG is
//                 rewritten with Cost-DKP nodes; during the first batches
//                 both placements are measured, the Table-I cost model is
//                 least-squares fitted, and afterwards each layer runs in
//                 the predicted-cheaper order.
//  * Prepro-GT  — Dynamic-GT + the service-wide tensor scheduler (pipelined
//                 per-layer subtasks, contention relaxing, pinned-memory
//                 chunked K->T transfers).
#pragma once

#include "dfg/cost_model.hpp"
#include "frameworks/framework.hpp"

namespace gt::frameworks {

class GraphTensorFramework : public Framework {
 public:
  enum class Variant { kBase, kDynamic, kPrepro };

  /// Starts without an embedding cache; configure_cache() enables one.
  explicit GraphTensorFramework(Variant variant) : variant_(variant) {}

  std::string name() const override;

  /// Modeled multi-device execution (DESIGN.md §14): numerics stay on the
  /// canonical single-device path; devices > 1 attributes the priced
  /// profile across a DeviceGroup per the strategy and prices its
  /// collectives. Requires a concrete strategy when devices > 1.
  bool configure_sharding(const ShardOptions& options) override {
    if (options.devices <= 1) {
      shard_ = ShardOptions{};
      return true;
    }
    if (options.strategy == ShardStrategy::kNone) return false;
    shard_ = options;
    return true;
  }

  /// Embedding cache hierarchy (DESIGN.md §15): a dataset-lifetime
  /// static + dynamic tier stack that re-prices the K/T stages without
  /// touching numerics. Replaces any earlier cache configuration; the
  /// hierarchy itself is built lazily on the first cached batch.
  bool configure_cache(const sampling::CacheConfig& config) override {
    cache_cfg_ = config;
    hierarchy_.reset();
    hier_graph_ = nullptr;
    hier_table_ = nullptr;
    return true;
  }

  /// Committed per-tier counters (zeros until a cached batch commits).
  sampling::CacheStats cache_stats() const noexcept {
    return hierarchy_ ? hierarchy_->stats() : sampling::CacheStats{};
  }

  /// Expose the orchestrator's cost model (Table I benchmarks read the fit
  /// error and coefficients).
  const dfg::DkpCostModel& cost_model() const noexcept { return cost_model_; }

  /// Batches used to collect both-placement measurements before fitting.
  static constexpr std::uint64_t kFitAfterBatches = 4;

  /// Cache hit rate observed by the last cache-enabled batch.
  double last_cache_hit_rate() const noexcept { return last_hit_rate_; }

 protected:
  void prepare(const Dataset& data, const models::GnnModelConfig& model,
               const BatchSpec& spec, pipeline::BatchContext& ctx) override;
  RunReport execute(const Dataset& data, const models::GnnModelConfig& model,
                    models::ModelParams& params, const BatchSpec& spec,
                    pipeline::BatchContext& ctx) override;

 private:
  pipeline::PlanOptions plan_options() const;
  /// Dataset-lifetime hierarchy, keyed on the graph/table identities like
  /// BatchContext::executor_for — rebuilt only when the dataset (or the
  /// cache configuration, via configure_cache) changes.
  sampling::CacheHierarchy& ensure_hierarchy(const Dataset& data);

  Variant variant_;
  sampling::CacheConfig cache_cfg_;
  std::unique_ptr<sampling::CacheHierarchy> hierarchy_;
  const void* hier_graph_ = nullptr;
  const void* hier_table_ = nullptr;
  double last_hit_rate_ = 0.0;
  dfg::DkpCostModel cost_model_;
  std::uint64_t batches_seen_ = 0;
  ShardOptions shard_;
};

}  // namespace gt::frameworks
