// Reusable per-batch execution context (gt::BatchContext).
//
// One context owns every host-side buffer a batch needs: the bump-pointer
// tensor arena (activations, gradients, downloads), the vertex hash table,
// the preprocessing result + scratch, the priced workload/schedule, and
// the small label/batch-vid vectors. The steady-state service loop keeps N
// contexts alive and calls begin_batch() before each batch: the arena
// rewinds and the hash table clears, but every backing allocation
// survives — after warm-up a batch performs zero arena growth and zero
// new heap Matrix allocations (a regression test enforces this).
//
// Ownership rules (DESIGN.md "Batch contexts"):
//  * Views handed out by the arena are valid until the next begin_batch()
//    on the same context; nothing that outlives the batch may hold one.
//  * Distinct contexts are fully independent — prepare_batch may run
//    concurrently on different contexts. A single context must never be
//    touched by two threads at once.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "pipeline/executor.hpp"
#include "pipeline/plan.hpp"
#include "pipeline/workload.hpp"
#include "sampling/hash_table.hpp"
#include "tensor/arena.hpp"

namespace gt::sampling {
class CacheHierarchy;
}

namespace gt::pipeline {

class BatchContext {
 public:
  BatchContext() = default;
  BatchContext(const BatchContext&) = delete;
  BatchContext& operator=(const BatchContext&) = delete;

  /// Rewind for a fresh batch: the arena resets, the hash table clears,
  /// the result counters and the prepare time zero. All capacity is kept,
  /// and the per-batch arena baselines (allocations/growths) are
  /// snapshotted.
  void begin_batch();

  Arena& arena() noexcept { return arena_; }
  const Arena& arena() const noexcept { return arena_; }
  sampling::VidHashTable& table() noexcept { return table_; }
  PreprocResult& preproc() noexcept { return preproc_; }
  const PreprocResult& preproc() const noexcept { return preproc_; }
  PreprocScratch& scratch() noexcept { return scratch_; }
  BatchWorkload& workload() noexcept { return workload_; }
  const BatchWorkload& workload() const noexcept { return workload_; }
  PreprocSchedule& schedule() noexcept { return schedule_; }
  const PreprocSchedule& schedule() const noexcept { return schedule_; }
  std::vector<Vid>& batch_vids() noexcept { return batch_vids_; }
  std::vector<std::uint32_t>& labels() noexcept { return labels_; }

  std::uint64_t batches_begun() const noexcept { return batches_begun_; }

  /// Host wall-clock µs of this batch's prepare phase, recorded by
  /// Framework::prepare_batch for execute_prepared to report. Zeroed by
  /// begin_batch().
  void set_host_prepare_us(double us) noexcept { host_prepare_us_ = us; }
  double host_prepare_us() const noexcept { return host_prepare_us_; }

  /// Arena allocations made since the last begin_batch(). Batch-intrinsic:
  /// identical no matter which context (or how many workers) ran the
  /// batch, so it is safe to compare across serial/concurrent runs.
  std::uint64_t arena_allocations_this_batch() const noexcept {
    return arena_.stats().allocations - alloc_snapshot_;
  }
  /// Arena block growths since the last begin_batch(). Zero once the
  /// context is warm; context-local (depends on which batches this
  /// context has seen before).
  std::uint64_t arena_growths_this_batch() const noexcept {
    return arena_.stats().growths - growth_snapshot_;
  }

  /// Dataset-lifetime cache hierarchy the executing framework attached for
  /// this batch (non-owning; may be null). Lets observers and the prefetch
  /// hook below reach the tiers without widening framework signatures.
  void set_cache_hierarchy(sampling::CacheHierarchy* hierarchy) noexcept {
    cache_hierarchy_ = hierarchy;
  }
  sampling::CacheHierarchy* cache_hierarchy() const noexcept {
    return cache_hierarchy_;
  }

  /// Sampler-lookahead hook: prepare_batch arms the prefetcher once the
  /// batch's vid_order is final, marking those rows warmable while the
  /// previous batch executes. Cleared by begin_batch(); the batch index
  /// is carried so a context reused for a different batch can't leak an
  /// armed hint across batches.
  void arm_cache_prefetch(std::uint64_t batch_index) noexcept {
    prefetch_armed_ = true;
    prefetch_batch_ = batch_index;
  }
  bool cache_prefetch_armed(std::uint64_t batch_index) const noexcept {
    return prefetch_armed_ && prefetch_batch_ == batch_index;
  }

  /// Cached preprocessing executor, rebuilt only when the keyed
  /// configuration (graph, embeddings, fanout, layers, seed, formats)
  /// changes, so steady-state batches reuse the sampler/lookup setup.
  PreprocExecutor& executor_for(const Csr& graph,
                                const EmbeddingTable& embeddings,
                                std::uint32_t fanout,
                                std::uint32_t num_layers, std::uint64_t seed,
                                sampling::ReindexFormats formats);

 private:
  Arena arena_;
  sampling::VidHashTable table_;
  PreprocResult preproc_;
  PreprocScratch scratch_;
  BatchWorkload workload_;
  PreprocSchedule schedule_;
  std::vector<Vid> batch_vids_;
  std::vector<std::uint32_t> labels_;

  std::unique_ptr<PreprocExecutor> executor_;
  const void* exec_graph_ = nullptr;
  const void* exec_embeddings_ = nullptr;
  std::uint32_t exec_fanout_ = 0;
  std::uint32_t exec_layers_ = 0;
  std::uint64_t exec_seed_ = 0;
  sampling::ReindexFormats exec_formats_{};

  sampling::CacheHierarchy* cache_hierarchy_ = nullptr;
  bool prefetch_armed_ = false;
  std::uint64_t prefetch_batch_ = 0;

  std::uint64_t batches_begun_ = 0;
  double host_prepare_us_ = 0.0;
  std::uint64_t alloc_snapshot_ = 0;
  std::uint64_t growth_snapshot_ = 0;
};

}  // namespace gt::pipeline

namespace gt {
using pipeline::BatchContext;  // service-level name
}
