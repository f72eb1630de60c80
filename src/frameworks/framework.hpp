// Framework interface: one training batch, end to end, fully instrumented.
//
// Every evaluated system (Base-GT / Dynamic-GT / Prepro-GT and the PyG /
// DGL / GNNAdvisor / SALIENT baselines) implements two phases: prepare
// (sample, reindex, lookup) and execute (transfer, FWP + loss + BWP on the
// simulated GPU, SGD), reporting the Nsight-style kernel profile, memory
// statistics, and the preprocessing schedule. Benchmarks reproduce the
// paper's tables and figures from these reports alone.
//
// The backends differ only in their layer kernels. Each execute hands its
// kernels to the one layer driver (detail::run_layers, DESIGN.md §18) and
// applies every outcome-dependent write at one commit point after its try
// block: a success or an OOM reaches it, any other exception skips it.
//
// Framework itself opens the two phase stage scopes (obs::Span) around
// them, so every caller — the service ring, its retry path, the bench
// binaries — gets one host-time measurement per phase, shared by the
// report, the WorkerProfiler and the trace.
#pragma once

#include <array>
#include <memory>
#include <string>

#include "datasets/catalog.hpp"
#include "gpusim/stats.hpp"
#include "models/config.hpp"
#include "models/params.hpp"
#include "obs/attrib/kernel_ledger.hpp"
#include "pipeline/batch_context.hpp"
#include "pipeline/plan.hpp"
#include "sampling/cache_hierarchy.hpp"

namespace gt::frameworks {

namespace detail {
struct DeviceSession;
}  // namespace detail

/// How a multi-device run decomposes a batch (DESIGN.md §14). Numerics
/// always execute the canonical single-device path; a strategy controls
/// the *modeled* decomposition — which device each kernel's work is
/// attributed to and which collectives are priced at layer boundaries.
enum class ShardStrategy {
  kNone,            // single device
  kRange,           // dst-vertex range partitioning + halo all-gather
  kTensorParallel,  // NeutronTP-style feature-dim slices + all-reduce
};

const char* to_string(ShardStrategy s);
/// Parse "range" / "tp"; throws std::invalid_argument otherwise.
ShardStrategy parse_shard_strategy(const std::string& name);

struct ShardOptions {
  std::size_t devices = 1;
  ShardStrategy strategy = ShardStrategy::kNone;
};

/// Kernel placement directive for a batch (Fig 15's error bars come from
/// running baselines explicitly in both orders).
enum class OrderPolicy {
  kAggregationFirst,  // the default static placement everywhere
  kCombinationFirst,  // explicit user reordering (GCN-style models only)
  kDynamic,           // Cost-DKP decides per layer (GraphTensor only)
};

struct BatchSpec {
  std::size_t batch_size = 300;   // paper §VI: 300 dst vertices per batch
  std::uint64_t batch_index = 0;  // selects the batch deterministically
  std::uint64_t seed = 42;
  OrderPolicy order = OrderPolicy::kAggregationFirst;
  float learning_rate = 0.01f;
  /// FWP only (no loss/BWP/SGD): the paper's inference service. Dynamic
  /// kernel placement decides per the forward-only cost model, where the
  /// combination-first benefit is largest (no first-layer backward skip to
  /// credit the conventional order).
  bool inference = false;
};

struct RunReport {
  std::string framework;
  std::string model;
  std::string dataset;
  bool oom = false;           // GPU out-of-memory (run aborted)
  std::string oom_what;

  // -- Degraded serving (gt::fault) -----------------------------------------
  // A batch whose prepare/execute kept throwing past the service's retry
  // budget is recorded here instead of aborting the epoch (the OOM path
  // above, generalized). `retries` counts recovery attempts consumed by
  // the batch (0 on the happy path) and `backoff_ticks` the virtual
  // (clock-free) backoff the service waited before those attempts.
  bool failed = false;
  std::string failed_reason;
  std::uint32_t retries = 0;
  std::uint64_t backoff_ticks = 0;

  /// True when the batch produced a real training/inference result.
  bool ok() const noexcept { return !oom && !failed; }

  // -- GPU side (kernel profile, Nsight-equivalent) -------------------------
  /// Kernel launches over the batch's device — exactly the gpusim.kernel
  /// fault-occurrence domain: a gt::fault `layer=` coordinate in
  /// [0, kernel_launches) lands on that launch. Synthetic charges (sorts,
  /// alloc overhead) appear in the profile but are not launch sites.
  std::uint64_t kernel_launches = 0;
  double kernel_total_us = 0.0;
  double fwp_us = 0.0;  // forward-pass share of kernel_total_us
  double bwp_us = 0.0;  // loss + backward share (0 for inference)
  std::array<double, 7> kernel_category_us{};  // by gpusim::KernelCategory
  std::uint64_t flops = 0;
  std::array<std::uint64_t, 7> kernel_category_flops{};
  std::size_t global_bytes = 0;
  std::size_t cache_loaded_bytes = 0;
  std::uint64_t atomic_ops = 0;
  std::size_t peak_memory_bytes = 0;
  std::size_t input_table_bytes = 0;  // normalizer for bloat metrics

  // -- Host side -------------------------------------------------------------
  pipeline::PreprocSchedule schedule;
  double preproc_makespan_us = 0.0;
  double end_to_end_us = 0.0;

  // Real (steady_clock) host time spent running this batch, as opposed to
  // the *simulated* times above: the durations of the prepare and execute
  // stage scopes, the same ones the WorkerProfiler adds up. Varies run to
  // run with machine load and the compute-engine thread count; equivalence
  // checks must ignore it.
  double host_prepare_us = 0.0;  // prepare_batch wall-clock
  double host_execute_us = 0.0;  // execute_prepared wall-clock

  // -- Batch context (arena) -------------------------------------------------
  // Per-batch values (peak/allocations) are batch-intrinsic and identical
  // no matter which worker context ran the batch; capacity/growths are
  // context-local warm-up properties (they depend on what the context ran
  // before) and must not be compared across worker counts.
  std::size_t arena_peak_bytes = 0;        // floats this batch carved
  std::uint64_t arena_allocations = 0;     // arena allocs this batch
  std::size_t arena_capacity_bytes = 0;    // context arena capacity
  std::uint64_t arena_growths = 0;         // block growths this batch

  // -- Multi-device (modeled decomposition; defaults = single device) -------
  // Filled only when the backend was configured with devices > 1, so
  // single-device reports stay bit-identical to pre-refactor runs.
  std::size_t devices = 1;
  ShardStrategy shard = ShardStrategy::kNone;
  double group_makespan_us = 0.0;  ///< merged group timeline end
  double comm_us = 0.0;            ///< collective time on the interconnect
  std::size_t comm_bytes = 0;      ///< bytes crossing links
  std::size_t comm_steps = 0;      ///< link pipeline steps
  std::size_t collectives = 0;     ///< collectives priced this batch
  /// Attributed per-device kernel totals and lane busy time (empty for
  /// devices == 1). Deterministic across compute-thread/worker counts.
  std::vector<gpusim::KernelStats> device_stats;
  std::vector<double> device_busy_us;

  // -- Training --------------------------------------------------------------
  float loss = 0.0f;
  std::array<std::uint32_t, 8> layer_comb_first_fwd{};  // DKP decisions
  std::array<std::uint32_t, 8> layer_comb_first_bwd{};

  double kernel_us(gpusim::KernelCategory c) const {
    return kernel_category_us[static_cast<std::size_t>(c)];
  }
  /// FLOPs executed by the irregular graph kernels (everything except the
  /// dense combination GEMMs).
  std::uint64_t graph_kernel_flops() const {
    return flops - kernel_category_flops[static_cast<std::size_t>(
                       gpusim::KernelCategory::kCombination)];
  }
};

/// The report's latencies in the form obs::attrib::stage_terms splits:
/// the one conversion the kernel ledger and the Fig 12 bench share.
obs::attrib::BatchTotals batch_totals(const RunReport& report);

class Framework {
 public:
  Framework();
  virtual ~Framework();
  virtual std::string name() const = 0;

  /// Opt the backend into modeled multi-device execution. Returns false
  /// when the backend cannot shard (the serial-only baselines); asking for
  /// a single device resets to the default and always succeeds.
  virtual bool configure_sharding(const ShardOptions& options) {
    return options.devices <= 1;
  }

  /// Opt the backend into the embedding cache hierarchy (DESIGN.md §15).
  /// Returns false when the backend has no cache path; a zero budget
  /// disables the hierarchy and always succeeds.
  virtual bool configure_cache(const sampling::CacheConfig& config) {
    return config.budget_bytes == 0;
  }

  /// Phase 1 — parameter-independent preprocessing (sample, reindex,
  /// lookup, schedule pricing) into `ctx`'s reusable storage. Safe to run
  /// concurrently for different batches on *distinct* contexts; never
  /// touches model parameters or framework state. Runs prepare() inside
  /// the prepare stage scope, whose duration waits in `ctx` for
  /// execute_prepared.
  void prepare_batch(const Dataset& data, const models::GnnModelConfig& model,
                     const BatchSpec& spec, pipeline::BatchContext& ctx);

  /// Phase 2 — device compute, loss, backward, and SGD from a prepared
  /// context. Mutates `params` and framework state (cost model, caches):
  /// callers must invoke it serially, in batch order, for determinism.
  /// Must not throw on GPU OOM — reports it. Runs execute() inside the
  /// execute stage scope and fills the report's framework/model/dataset
  /// and both host_*_us fields.
  RunReport execute_prepared(const Dataset& data,
                             const models::GnnModelConfig& model,
                             models::ModelParams& params,
                             const BatchSpec& spec,
                             pipeline::BatchContext& ctx);

  /// Train one batch end to end in `ctx`: begin_batch + prepare + execute.
  RunReport run_batch(const Dataset& data, const models::GnnModelConfig& model,
                      models::ModelParams& params, const BatchSpec& spec,
                      pipeline::BatchContext& ctx);

  /// Compatibility form: same, in a lazily created framework-owned
  /// scratch context (so repeated calls still reuse buffers).
  RunReport run_batch(const Dataset& data, const models::GnnModelConfig& model,
                      models::ModelParams& params, const BatchSpec& spec);

 protected:
  /// The backend's two phases, behind prepare_batch / execute_prepared.
  virtual void prepare(const Dataset& data, const models::GnnModelConfig& model,
                       const BatchSpec& spec, pipeline::BatchContext& ctx) = 0;
  virtual RunReport execute(const Dataset& data,
                            const models::GnnModelConfig& model,
                            models::ModelParams& params, const BatchSpec& spec,
                            pipeline::BatchContext& ctx) = 0;

  /// The backend's one simulated device and its uploads, built on first
  /// use. execute_prepared runs serially per backend, so every batch
  /// attempt resets and refills this session (detail::open_session)
  /// instead of building a device.
  detail::DeviceSession& device_session();

 private:
  std::unique_ptr<pipeline::BatchContext> scratch_ctx_;
  std::unique_ptr<detail::DeviceSession> session_;
};

/// Factory. Known names: "PyG", "PyG-MT", "DGL", "GNNAdvisor", "SALIENT",
/// "Base-GT", "Dynamic-GT", "Prepro-GT". Throws std::out_of_range otherwise.
std::unique_ptr<Framework> make_framework(const std::string& name);

/// All framework names in evaluation order.
const std::vector<std::string>& framework_names();

}  // namespace gt::frameworks
