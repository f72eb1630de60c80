// Real (data-producing) preprocessing executors.
//
// The discrete-event planner prices schedules; these executors actually
// run sampling, reindexing, and embedding lookup — serially or across a
// thread pool structured like the service-wide tensor scheduler (parallel
// algorithm chunks, hash updates serialized in deterministic order). The
// parallel path must produce bit-identical results to the serial one;
// tests enforce it. Real hash-table contention counters are reported for
// the Fig 14 measurements.
//
// The serial executor comes in two forms: the owning run_serial (fresh hash
// table and result per call) and the context-backed run_serial_into, which
// fills a caller-held PreprocResult + VidHashTable + PreprocScratch so the
// steady-state batch loop reuses every buffer (gt::BatchContext owns that
// trio). The threaded run_parallel is owning only; it is the source of
// Fig 14's real-thread lock counts.
//
// Each S/R/K step runs inside a stage scope (GT_OBS_STAGE, obs/trace.hpp):
// one clock pair per step feeds the WorkerProfiler and, while tracing, the
// span of the same name. In run_parallel the scopes run on pool threads.
#pragma once

#include <cstdint>
#include <span>

#include "datasets/embedding.hpp"
#include "graph/csr.hpp"
#include "sampling/lookup.hpp"
#include "sampling/reindex.hpp"
#include "sampling/sampler.hpp"
#include "tensor/matrix.hpp"
#include "util/thread_pool.hpp"

namespace gt::pipeline {

struct PreprocResult {
  sampling::SampledBatch batch;
  std::vector<sampling::LayerGraphHost> layers;  // per exec-layer
  Matrix embeddings;                             // layer-0 input table
  std::uint64_t hash_acquisitions = 0;
  std::uint64_t hash_contended = 0;

  /// Reset counters for a fresh batch; every vector keeps its capacity
  /// (the fillers overwrite the data in place).
  void clear_for_reuse() noexcept {
    hash_acquisitions = 0;
    hash_contended = 0;
  }
};

/// Reusable working memory the executors need besides the result itself.
struct PreprocScratch {
  std::vector<Coo> layer_coo;                 // per-layer reindex staging
  std::vector<sampling::HopEdges> chunk_edges;  // per-A-chunk expansion
};

class PreprocExecutor {
 public:
  PreprocExecutor(const Csr& graph, const EmbeddingTable& embeddings,
                  std::uint32_t fanout, std::uint32_t num_layers,
                  std::uint64_t seed, sampling::ReindexFormats formats);

  const sampling::NeighborSampler& sampler() const noexcept {
    return sampler_;
  }
  std::uint32_t num_layers() const noexcept { return num_layers_; }
  const sampling::ReindexFormats& formats() const noexcept {
    return formats_;
  }

  /// Single-threaded: S hops, then R per layer, then K.
  PreprocResult run_serial(std::span<const Vid> batch_vids) const;

  /// Service-wide structured: A chunks fan out over the pool, H updates
  /// apply serially in chunk order (deterministic VIDs), R layers and K
  /// chunks run concurrently afterwards.
  PreprocResult run_parallel(std::span<const Vid> batch_vids,
                             ThreadPool& pool,
                             std::size_t chunks = 8) const;

  /// Context-backed run_serial: identical output, zero steady-state
  /// allocation. `table` must be clear()ed by the caller.
  void run_serial_into(std::span<const Vid> batch_vids, sampling::VidHashTable& table,
                       PreprocResult& out, PreprocScratch& scratch) const;

 private:
  const Csr& graph_;
  sampling::NeighborSampler sampler_;
  sampling::EmbeddingLookup lookup_;
  std::uint32_t num_layers_;
  sampling::ReindexFormats formats_;
};

}  // namespace gt::pipeline
