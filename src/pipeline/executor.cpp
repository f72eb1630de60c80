#include "pipeline/executor.hpp"

#include <stdexcept>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gt::pipeline {

using sampling::HopEdges;
using sampling::LayerGraphHost;
using sampling::SampledBatch;
using sampling::VidHashTable;

namespace {

/// Hash-table accounting shared by both executors: the legacy
/// PreprocResult fields and the obs registry report the same counts (a
/// regression test keeps the Fig 14 numbers trustworthy).
void record_preproc_metrics(const PreprocResult& result) {
  obs::MetricsRegistry& m = obs::metrics();
  m.counter("preproc.batches").add(1);
  m.counter("preproc.hash_acquisitions").add(result.hash_acquisitions);
  m.counter("preproc.hash_contended").add(result.hash_contended);
  m.counter("preproc.sampled_vertices").add(result.batch.total_vertices());
}

}  // namespace

PreprocExecutor::PreprocExecutor(const Csr& graph,
                                 const EmbeddingTable& embeddings,
                                 std::uint32_t fanout,
                                 std::uint32_t num_layers, std::uint64_t seed,
                                 sampling::ReindexFormats formats)
    : graph_(graph),
      sampler_(graph, fanout, seed),
      lookup_(embeddings),
      num_layers_(num_layers),
      formats_(formats) {
  if (num_layers == 0) throw std::invalid_argument("need >= 1 layer");
}

PreprocResult PreprocExecutor::run_serial(
    std::span<const Vid> batch_vids) const {
  PreprocResult result;
  VidHashTable table;
  PreprocScratch scratch;
  run_serial_into(batch_vids, table, result, scratch);
  return result;
}

void PreprocExecutor::run_serial_into(std::span<const Vid> batch_vids,
                                      VidHashTable& table, PreprocResult& out,
                                      PreprocScratch& scratch) const {
  GT_OBS_SCOPE_N(span, "preproc.run_serial", "preproc");
  span.arg("batch_size", static_cast<std::int64_t>(batch_vids.size()));
  out.clear_for_reuse();
  scratch.layer_coo.resize(num_layers_);
  out.layers.resize(num_layers_);
  {
    GT_OBS_STAGE(s_span, kSample, "S.sample", "sampling");
    sampler_.sample_into(batch_vids, num_layers_, table, out.batch);
  }
  for (std::uint32_t l = 0; l < num_layers_; ++l) {
    fault::check(fault::Site::kPreprocReindex, l);
    GT_OBS_STAGE(r_span, kReindex, "R.layer", "reindex");
    r_span.arg("layer", static_cast<std::int64_t>(l));
    sampling::reindex_layer_into(out.batch, table, l, formats_, out.layers[l],
                                 scratch.layer_coo[l]);
  }
  {
    GT_OBS_STAGE(k_span, kLookup, "K.lookup", "lookup");
    out.embeddings.resize(out.batch.vid_order.size(), lookup_.table().dim());
    lookup_.gather_chunk(out.batch.vid_order, 0, out.batch.vid_order.size(),
                         out.embeddings);
  }
  out.hash_acquisitions = table.lock_acquisitions();
  out.hash_contended = table.contended_acquisitions();
  record_preproc_metrics(out);
}

PreprocResult PreprocExecutor::run_parallel(std::span<const Vid> batch_vids,
                                            ThreadPool& pool,
                                            std::size_t chunks) const {
  PreprocResult out;
  VidHashTable table;
  PreprocScratch scratch;
  if (chunks == 0) chunks = 1;
  fault::check(fault::Site::kPreprocSample);
  GT_OBS_SCOPE_N(span, "preproc.run_parallel", "preproc");
  span.arg("batch_size", static_cast<std::int64_t>(batch_vids.size()));
  span.arg("chunks", static_cast<std::int64_t>(chunks));
  scratch.layer_coo.resize(num_layers_);
  scratch.chunk_edges.resize(chunks);
  out.layers.resize(num_layers_);

  SampledBatch& sb = out.batch;
  sb.num_layers = num_layers_;
  sb.batch.assign(batch_vids.begin(), batch_vids.end());
  sb.set_sizes.clear();
  sb.hops.resize(num_layers_);

  // Hop 0: batch insert (a serialized hash update).
  for (Vid v : batch_vids) {
    bool is_new = false;
    table.insert_or_get(v, &is_new);
    if (!is_new)
      throw std::invalid_argument("run_parallel: duplicate batch vertex");
  }
  sb.set_sizes.push_back(table.size());

  std::vector<Vid> frontier(batch_vids.begin(), batch_vids.end());
  for (std::uint32_t h = 1; h <= num_layers_; ++h) {
    // A part: chunks of the frontier expand concurrently (per-vertex RNG
    // keeps the result partition-invariant). Slots are pre-cleared because
    // parallel_for may run fewer chunks than requested.
    for (HopEdges& ce : scratch.chunk_edges) {
      ce.src.clear();
      ce.dst.clear();
    }
    pool.parallel_for(
        0, frontier.size(), chunks,
        [this, &frontier, &scratch, h](std::size_t c, std::size_t lo,
                                       std::size_t hi) {
          GT_OBS_STAGE(a_span, kSample, "S.A", "sampling");
          a_span.arg("hop", static_cast<std::int64_t>(h));
          a_span.arg("vertices", static_cast<std::int64_t>(hi - lo));
          sampler_.choose_neighbors_into(
              std::span(frontier).subspan(lo, hi - lo), h,
              scratch.chunk_edges[c]);
        });
    // H part: serialized, in chunk order -> deterministic VID assignment.
    HopEdges& edges = sb.hops[h - 1];
    edges.src.clear();
    edges.dst.clear();
    for (const HopEdges& chunk : scratch.chunk_edges) {
      if (chunk.src.empty()) continue;
      GT_OBS_STAGE(h_span, kSample, "S.H", "sampling");
      h_span.arg("hop", static_cast<std::int64_t>(h));
      sampling::NeighborSampler::insert_vertices(table, chunk);
      edges.src.insert(edges.src.end(), chunk.src.begin(), chunk.src.end());
      edges.dst.insert(edges.dst.end(), chunk.dst.begin(), chunk.dst.end());
    }
    const Vid prev_size = sb.set_sizes.back();
    sb.set_sizes.push_back(table.size());
    if (h < num_layers_) {
      const auto order = table.insertion_order();
      frontier.assign(order.begin() + prev_size,
                      order.begin() + table.size());
    }
  }
  table.insertion_order_into(sb.vid_order);

  // R: layers reindex concurrently (read-only table traffic). One chunk
  // per layer keeps each layer's scratch private. Fault checks run on the
  // calling thread (the pool workers carry no fault scope).
  for (std::uint32_t l = 0; l < num_layers_; ++l)
    fault::check(fault::Site::kPreprocReindex, l);
  pool.parallel_for(0, num_layers_, num_layers_,
                    [this, &sb, &table, &out, &scratch](
                        std::size_t, std::size_t lo, std::size_t hi) {
                      for (std::size_t l = lo; l < hi; ++l) {
                        GT_OBS_STAGE(r_span, kReindex, "R.layer", "reindex");
                        r_span.arg("layer", static_cast<std::int64_t>(l));
                        sampling::reindex_layer_into(
                            sb, table, static_cast<std::uint32_t>(l),
                            formats_, out.layers[l], scratch.layer_coo[l]);
                      }
                    });

  // K: disjoint row ranges of the gathered table fill concurrently.
  out.embeddings.resize(sb.vid_order.size(), lookup_.table().dim());
  pool.parallel_for(0, sb.vid_order.size(), chunks,
                    [this, &sb, &out](std::size_t, std::size_t lo,
                                      std::size_t hi) {
                      GT_OBS_STAGE(k_span, kLookup, "K.chunk", "lookup");
                      k_span.arg("rows", static_cast<std::int64_t>(hi - lo));
                      lookup_.gather_chunk(sb.vid_order, lo, hi,
                                           out.embeddings);
                    });

  out.hash_acquisitions = table.lock_acquisitions();
  out.hash_contended = table.contended_acquisitions();
  record_preproc_metrics(out);
  return out;
}

}  // namespace gt::pipeline
