#include "pipeline/batch_context.hpp"

#include "obs/metrics.hpp"

namespace gt::pipeline {

void BatchContext::begin_batch() {
  table_.clear();
  arena_.reset();
  preproc_.clear_for_reuse();
  prefetch_armed_ = false;
  cache_hierarchy_ = nullptr;
  host_prepare_us_ = 0.0;
  alloc_snapshot_ = arena_.stats().allocations;
  growth_snapshot_ = arena_.stats().growths;
  ++batches_begun_;
  obs::metrics().counter("batch_context.batches").add(1);
}

PreprocExecutor& BatchContext::executor_for(const Csr& graph,
                                            const EmbeddingTable& embeddings,
                                            std::uint32_t fanout,
                                            std::uint32_t num_layers,
                                            std::uint64_t seed,
                                            sampling::ReindexFormats formats) {
  const bool hit = executor_ && exec_graph_ == &graph &&
                   exec_embeddings_ == &embeddings && exec_fanout_ == fanout &&
                   exec_layers_ == num_layers && exec_seed_ == seed &&
                   exec_formats_.coo == formats.coo &&
                   exec_formats_.csr == formats.csr &&
                   exec_formats_.csc == formats.csc;
  if (!hit) {
    executor_ = std::make_unique<PreprocExecutor>(graph, embeddings, fanout,
                                                  num_layers, seed, formats);
    exec_graph_ = &graph;
    exec_embeddings_ = &embeddings;
    exec_fanout_ = fanout;
    exec_layers_ = num_layers;
    exec_seed_ = seed;
    exec_formats_ = formats;
    obs::metrics().counter("batch_context.executor_rebuilds").add(1);
  }
  return *executor_;
}

}  // namespace gt::pipeline
