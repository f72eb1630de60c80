// GnnService: the end-user entry point. Owns a dataset, a model, its
// parameters, and a framework backend; trains batch by batch and evaluates
// classification accuracy against the synthetic labels.
//
// Steady-state loop: every batch, from train_batch() to serve(), runs
// through one bounded in-flight ring (capacity = workers) over `workers`
// BatchContexts: batch i preprocesses in context (i % workers) — on the
// thread pool when workers > 1, inline at one worker — while
// execute_prepared (device compute + SGD) runs on the caller thread, in
// batch order. Preprocessing is parameter-independent, so the reports are
// bit-identical at every worker count.
//
// Configuration is ServiceOptions alone: the service reads no environment
// variable (service_cli's option table maps the GT_* names onto these
// fields), so a stray shell variable cannot arm faults, telemetry or the
// kernel ledger in every service of a process.
//
// Fault tolerance (DESIGN.md §11): with a fault plan armed
// (ServiceOptions::fault_spec), instrumented sites throw
// typed InjectedFaults. The ring is exception-safe — before any unwind it
// drains every in-flight preparation, quarantines (resets) the worker
// contexts, runs its caller's unwind hook (serve()'s planner sheds its
// queue and the riders of its in-flight batches), and crash-flushes
// telemetry. Transient faults are retried with bounded
// virtual exponential backoff; a batch that exhausts its retry budget
// degrades to a RunReport::failed entry instead of aborting the epoch.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "datasets/catalog.hpp"
#include "fault/fault.hpp"
#include "frameworks/framework.hpp"
#include "models/config.hpp"
#include "models/params.hpp"
#include "obs/live/telemetry.hpp"
#include "serving/planner.hpp"
#include "util/thread_pool.hpp"

namespace gt {

namespace detail {

/// a + b with saturation at UINT64_MAX instead of wraparound. Used for
/// the virtual-backoff accumulators, which legitimately approach the top
/// of the range when backoff_max_ticks is huge and retries pile up.
constexpr std::uint64_t saturating_add(std::uint64_t a,
                                       std::uint64_t b) noexcept {
  return a > ~0ull - b ? ~0ull : a + b;
}

/// Virtual exponential backoff before retry `attempt` (1-based):
/// min(base << (attempt - 1), cap), computed without undefined behavior.
/// A shift that would overflow saturates to UINT64_MAX (then clamps to
/// cap) instead of wrapping; base == 0 means "no backoff" for every
/// attempt, including ones whose shift exceeds the word size.
constexpr std::uint64_t saturating_backoff(std::uint64_t base,
                                           std::uint32_t attempt,
                                           std::uint64_t cap) noexcept {
  if (base == 0) return 0;
  const std::uint32_t shift = attempt > 1 ? attempt - 1 : 0;
  const std::uint64_t ticks =
      (shift >= 64 || base > (~0ull >> shift)) ? ~0ull : base << shift;
  return ticks < cap ? ticks : cap;
}

}  // namespace detail

struct ServiceOptions {
  std::string framework = "Prepro-GT";
  std::uint64_t seed = 42;
  float learning_rate = 0.05f;
  std::size_t batch_size = 300;
  /// Worker contexts draining the batch queue. 1 = fully serial. N > 1
  /// overlaps preprocessing of up to N batches; results stay bit-identical
  /// to workers == 1.
  std::size_t workers = 1;
  /// Simulated devices for modeled multi-device execution (DESIGN.md §14).
  /// 1 = the classic single-device run. N > 1 requires a shard-capable
  /// backend (the GraphTensor variants): the constructor throws
  /// std::invalid_argument when the backend refuses. Trained parameters
  /// stay bit-identical to devices == 1; only the modeled timeline,
  /// comm.* metrics, and per-device attribution change.
  std::size_t devices = 1;
  /// Decomposition strategy for devices > 1; kNone defaults to kRange.
  /// Ignored (and rejected by the CLI) for single-device runs.
  frameworks::ShardStrategy shard = frameworks::ShardStrategy::kNone;
  /// Embedding cache hierarchy budget (DESIGN.md §15). 0 = no cache. A
  /// positive budget requires a cache-capable backend (the GraphTensor
  /// variants): the constructor throws std::invalid_argument when the
  /// backend refuses. The cache re-prices the K/T stages only — trained
  /// parameters and losses stay bit-identical to a cache-off run.
  std::size_t cache_budget_bytes = 0;
  /// Replacement policy for the cache budget; only read when
  /// cache_budget_bytes > 0.
  sampling::CachePolicy cache_policy = sampling::CachePolicy::kStatic;
  /// Sampler-lookahead prefetch: warm the dynamic tier with the prepared
  /// next batch's vid_order, priced as overlapped transfer. Only read
  /// when cache_budget_bytes > 0 (and only effective for policies with a
  /// dynamic tier).
  bool cache_prefetch = false;
  /// Host threads for the process-wide compute engine (simulated-device
  /// kernel execution and dense tensor ops). 0 leaves the current global
  /// setting (the engine's GT_COMPUTE_THREADS / hardware default)
  /// untouched; any other value reconfigures the engine via
  /// set_compute_threads. Reports are bit-identical for every value —
  /// only host wall-clock changes.
  std::size_t compute_threads = 0;
  /// Fault-injection schedule (gt::fault grammar, e.g.
  /// "gpusim.alloc@batch=3:layer=1;preproc.sample@batch=7"). Empty = no
  /// plan. The constructor throws std::invalid_argument on a malformed
  /// spec.
  std::string fault_spec;
  /// Recovery budget: a batch whose attempt throws a *transient*
  /// InjectedFault is re-run up to this many times before it degrades to
  /// a RunReport::failed entry. kind=abort faults and non-injected
  /// exceptions are never retried — they unwind after a full drain.
  std::uint32_t max_retries = 3;
  /// Virtual exponential backoff before retry k (1-based):
  /// min(backoff_base_ticks << (k - 1), backoff_max_ticks) ticks. Ticks
  /// are a deterministic counter (no wall-clock sleep), so recovered runs
  /// stay bit-identical and tests stay fast.
  std::uint64_t backoff_base_ticks = 1;
  std::uint64_t backoff_max_ticks = 64;
  /// Live telemetry (DESIGN.md §12). When telemetry.out_dir is non-empty
  /// the service arms the full live stack for its lifetime: snapshot
  /// files + structured event log under that directory, per-worker stage
  /// profiler, optional stall watchdog, crash-safe flush. Telemetry never
  /// changes trained parameters or priced kernel stats.
  obs::live::TelemetryOptions telemetry;
  /// Kernel-level attribution ledger (DESIGN.md §13). Non-empty = arm the
  /// process-wide KernelLedger and write the schema-versioned kernels.json
  /// to this path when the service is destroyed. Empty = off. Like
  /// telemetry, the ledger is read-only on training state: armed and
  /// disarmed runs produce bit-identical parameters and reports.
  std::string kernel_ledger_out;
};

struct EpochStats {
  double mean_loss = 0.0;
  double first_loss = 0.0;
  double last_loss = 0.0;
  double mean_end_to_end_us = 0.0;
  double mean_kernel_us = 0.0;
  std::size_t batches = 0;
  std::size_t oom_batches = 0;
  /// Batches that exhausted the retry budget (RunReport::failed). Like
  /// OOM batches they are excluded from every mean.
  std::size_t degraded_batches = 0;
  /// Recovery attempts and virtual backoff consumed across the epoch.
  std::uint64_t retries = 0;
  std::uint64_t backoff_ticks = 0;
  // Arena telemetry across the epoch's batches.
  std::size_t arena_peak_bytes = 0;      // max per-batch arena usage
  std::uint64_t arena_allocations = 0;   // total arena allocs
  std::uint64_t arena_growths = 0;       // total block growths (0 when warm)
};

class GnnService {
 public:
  GnnService(Dataset dataset, models::GnnModelConfig model,
             ServiceOptions options = {});
  /// Writes the armed kernel ledger (if this service armed it) before the
  /// members unwind. Defaulted otherwise-observable behavior.
  ~GnnService();

  const Dataset& dataset() const noexcept { return dataset_; }
  const models::GnnModelConfig& model() const noexcept { return model_; }
  const models::ModelParams& params() const noexcept { return params_; }
  const std::string& framework_name() const noexcept {
    return options_.framework;
  }
  std::size_t workers() const noexcept { return options_.workers; }

  /// Armed fault plan, or null when no spec was given. Exposed so tests
  /// and the harness can assert injection counts / rearm between runs.
  fault::FaultPlan* fault_plan() noexcept { return fault_plan_.get(); }

  /// Total virtual backoff ticks the service has waited so far.
  std::uint64_t virtual_backoff_ticks() const noexcept {
    return backoff_ticks_total_;
  }

  /// Live telemetry stack, or null when telemetry is off.
  obs::live::LiveTelemetry* telemetry() noexcept { return telemetry_.get(); }

  /// Held-out evaluation stream: evaluation batch b draws from batch
  /// index (kEvalStreamTag | b). The tag occupies the top bit of the
  /// 64-bit index domain, so the stream is disjoint from every training
  /// batch index a service could reach by counting up from zero (the old
  /// 1 << 20 offset collided once training passed 2^20 batches).
  static constexpr std::uint64_t kEvalStreamTag = 1ull << 63;
  static constexpr std::uint64_t eval_batch_index(std::uint64_t b) noexcept {
    return kEvalStreamTag | b;
  }

  /// Train one batch; batches advance deterministically.
  frameworks::RunReport train_batch();

  /// Train `batches` consecutive batches through the steady-state loop
  /// (concurrent when options.workers > 1). Reports come back in batch
  /// order and match a workers == 1 run bit for bit.
  std::vector<frameworks::RunReport> train_batches(std::size_t batches);

  /// Train `batches` consecutive batches and aggregate the reports.
  EpochStats train_epoch(std::size_t batches);

  /// Online request serving (DESIGN.md §16). A serving::ServePlanner
  /// replays the seeded open-loop arrival schedule through SLO-aware
  /// admission and the dynamic batcher; every planned batch executes
  /// forward-only through the same worker-context ring as train_batches,
  /// and the planner prices its riders' completions on the measured
  /// virtual clock and builds the report. This method keeps the warm-up
  /// that seeds the estimate, the ring and the serving.* metrics. The
  /// returned outcome stream is a pure function of `config` plus this
  /// service's deterministic reports, so it is bit-identical across
  /// workers counts — including under an injected fault plan. Throws
  /// std::invalid_argument on an unusable config.
  serving::ServeReport serve(const serving::ServeConfig& config);

  /// Classification accuracy on `batches` *held-out* batches (the
  /// kEvalStreamTag batch stream), computed with the CPU reference
  /// forward in a dedicated arena-backed context.
  double evaluate(std::size_t batches = 4);

 private:
  frameworks::BatchSpec next_spec(bool inference, std::size_t batch_size);
  /// The one batch loop (DESIGN.md §9, §11): pulls specs from `source`
  /// until it yields nullopt and hands each report to `sink` in batch
  /// order, with the count of preparations still in flight behind it.
  /// `on_unwind` (may be empty) runs on unwind, after the drain.
  void run_ring(
      std::size_t workers,
      const std::function<std::optional<frameworks::BatchSpec>()>& source,
      const std::function<void(const frameworks::BatchSpec&,
                               frameworks::RunReport, std::size_t)>& sink,
      const std::function<void()>& on_unwind);
  /// `batches` consecutive batches of `batch_size` through the ring at
  /// min(workers, batches) workers; reports in batch order.
  std::vector<frameworks::RunReport> run_batches(std::size_t batches,
                                                 bool inference,
                                                 std::size_t batch_size);
  /// Run one batch attempt-by-attempt: retry transient InjectedFaults
  /// with virtual backoff (`failed_attempts` counts attempts already
  /// burned by the caller, e.g. a ring preparation that threw), degrade
  /// to a failed report past max_retries. kind=abort rethrows.
  frameworks::RunReport run_with_recovery(const frameworks::BatchSpec& spec,
                                          pipeline::BatchContext& ctx,
                                          std::uint32_t failed_attempts,
                                          std::string last_reason);
  frameworks::RunReport degraded_report(const frameworks::BatchSpec& spec,
                                        const std::string& reason,
                                        std::uint32_t retries,
                                        std::uint64_t backoff);
  /// Post-batch observability: latency/loss histograms, p99 + queue-depth
  /// gauges, service.oom events, watchdog heartbeat, snapshot tick.
  void after_batch(const frameworks::BatchSpec& spec,
                   const frameworks::RunReport& report,
                   std::size_t queue_depth);
  std::uint64_t backoff_for(std::uint32_t attempt) const noexcept;

  Dataset dataset_;
  models::GnnModelConfig model_;
  ServiceOptions options_;
  models::ModelParams params_;
  std::unique_ptr<frameworks::Framework> backend_;
  std::unique_ptr<fault::FaultPlan> fault_plan_;  // null = faults off
  std::unique_ptr<obs::live::LiveTelemetry> telemetry_;  // null = off
  bool ledger_armed_ = false;  // this service armed the process ledger
  std::uint64_t next_batch_ = 0;
  std::uint64_t backoff_ticks_total_ = 0;
  std::vector<std::unique_ptr<pipeline::BatchContext>> contexts_;
  std::unique_ptr<pipeline::BatchContext> eval_context_;
  std::unique_ptr<ThreadPool> pool_;  // lazy; only for rings of > 1 worker
};

}  // namespace gt
