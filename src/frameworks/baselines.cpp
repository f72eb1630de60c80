#include "frameworks/baselines.hpp"

#include "frameworks/common.hpp"
#include "kernels/dl_approach.hpp"
#include "kernels/graph_approach.hpp"
#include "kernels/napa.hpp"

namespace gt::frameworks {

using gpusim::BufferId;
using gpusim::kInvalidBuffer;
using kernels::AggMode;
using kernels::EdgeWeightMode;
namespace dl = kernels::dl;
namespace graphsim = kernels::graphsim;
namespace napa = kernels::napa;

BaselineOptions pyg_options() {
  BaselineOptions o;
  o.compute = BaselineOptions::Compute::kDl;
  o.strategy = pipeline::PreprocStrategy::kSerial;
  return o;
}

BaselineOptions pyg_mt_options() {
  BaselineOptions o = pyg_options();
  o.strategy = pipeline::PreprocStrategy::kParallelTasks;
  return o;
}

BaselineOptions dgl_options() {
  BaselineOptions o;
  o.compute = BaselineOptions::Compute::kGraph;
  o.strategy = pipeline::PreprocStrategy::kParallelTasks;
  o.overlap_compute = true;
  return o;
}

BaselineOptions gnnadvisor_options() {
  BaselineOptions o;
  o.compute = BaselineOptions::Compute::kAdvisor;
  o.strategy = pipeline::PreprocStrategy::kSerial;
  return o;
}

BaselineOptions salient_options() {
  BaselineOptions o;
  o.compute = BaselineOptions::Compute::kDl;
  o.strategy = pipeline::PreprocStrategy::kParallelTasks;
  o.pinned_memory = true;
  o.pipelined_kt = true;
  o.overlap_compute = true;
  return o;
}

namespace {

/// Neighbors GNNAdvisor aggregates per group before an atomic merge.
constexpr std::size_t kAdvisorGroupSize = 4;

/// Per-layer forward artifacts a baseline retains for its backward pass.
struct LayerCache {
  BufferId weights = kInvalidBuffer;
  BufferId aggr = kInvalidBuffer;
  BufferId transformed = kInvalidBuffer;  // combination-first only
  BufferId pre_act = kInvalidBuffer;
  BufferId out = kInvalidBuffer;
  kernels::DeviceCsr translated_csr;  // DGL: device-built CSR of this layer
  bool has_translated = false;
  bool comb_first = false;
};

struct LayerIo {
  gpusim::Device& dev;
  const models::GnnModelConfig& model;
};

LayerCache forward_dl(LayerIo io, const kernels::DeviceCsr& csr, BufferId x,
                      BufferId w, BufferId b, bool relu, bool comb_first,
                      bool advisor) {
  LayerCache cache;
  cache.comb_first = comb_first;
  const AggMode f = io.model.f;
  const EdgeWeightMode g = io.model.g;
  if (!comb_first) {
    if (advisor && g == EdgeWeightMode::kNone) {
      cache.aggr = dl::aggregate_neighbor_groups(io.dev, csr, x, f,
                                                 kAdvisorGroupSize);
    } else {
      cache.aggr = dl::forward_aggregate(io.dev, csr, x, f, g, &cache.weights);
    }
    cache.out = napa::apply_dense(io.dev, cache.aggr, w, b, relu,
                                  &cache.pre_act);
    return cache;
  }
  // Combination-first (unweighted models only).
  cache.transformed = napa::apply_matmul(io.dev, x, w);
  if (advisor) {
    cache.aggr = dl::aggregate_neighbor_groups(io.dev, csr, cache.transformed,
                                               f, kAdvisorGroupSize);
  } else {
    BufferId unused = kInvalidBuffer;
    cache.aggr = dl::forward_aggregate(io.dev, csr, cache.transformed, f,
                                       EdgeWeightMode::kNone, &unused);
  }
  cache.out = napa::apply_bias_act(io.dev, cache.aggr, b, relu,
                                   &cache.pre_act);
  return cache;
}

napa::DenseGrads backward_dl(LayerIo io, const kernels::DeviceCsr& csr,
                             BufferId x, BufferId w, const LayerCache& cache,
                             BufferId dy, bool relu, bool want_dx) {
  const AggMode f = io.model.f;
  const EdgeWeightMode g = io.model.g;
  napa::DenseGrads grads;
  if (!cache.comb_first) {
    napa::DenseGrads dense = napa::apply_dense_backward(
        io.dev, cache.aggr, w, cache.pre_act, dy, relu, want_dx);
    grads.dw = dense.dw;
    grads.db = dense.db;
    if (want_dx) {
      grads.dx = dl::backward_aggregate(io.dev, csr, x, cache.weights,
                                        dense.dx, f, g);
      io.dev.free(dense.dx);
    }
    return grads;
  }
  // Combination-first backward: bias/act, scatter-back in hidden space,
  // then the matmul backward. dW needs dT, so the graph traversal cannot
  // be skipped even for the first layer.
  napa::BiasActGrads bias =
      napa::apply_bias_act_backward(io.dev, cache.pre_act, dy, relu);
  grads.db = bias.db;
  BufferId dt = dl::backward_aggregate(io.dev, csr, cache.transformed,
                                       kInvalidBuffer, bias.dx, f,
                                       EdgeWeightMode::kNone);
  napa::MatmulGrads mm =
      napa::apply_matmul_backward(io.dev, x, w, dt, want_dx);
  grads.dw = mm.dw;
  grads.dx = mm.dx;
  io.dev.free(dt);
  io.dev.free(bias.dx);
  return grads;
}

LayerCache forward_graph(LayerIo io, const kernels::DeviceCoo& coo,
                         BufferId x, BufferId w, BufferId b, bool relu,
                         bool comb_first) {
  LayerCache cache;
  cache.comb_first = comb_first;
  const AggMode f = io.model.f;
  const EdgeWeightMode g = io.model.g;
  if (g != EdgeWeightMode::kNone)
    cache.weights = graphsim::sddmm_edgewise(io.dev, coo, x, g);
  if (comb_first) cache.transformed = napa::apply_matmul(io.dev, x, w);
  // SpMM needs per-dst source lists: pay the COO -> CSR translation.
  cache.translated_csr = graphsim::translate_to_csr(io.dev, coo);
  cache.has_translated = true;
  cache.aggr = graphsim::spmm_edgewise(
      io.dev, cache.translated_csr,
      comb_first ? cache.transformed : x, cache.weights, f, g);
  if (comb_first) {
    cache.out = napa::apply_bias_act(io.dev, cache.aggr, b, relu,
                                     &cache.pre_act);
  } else {
    cache.out = napa::apply_dense(io.dev, cache.aggr, w, b, relu,
                                  &cache.pre_act);
  }
  return cache;
}

napa::DenseGrads backward_graph(LayerIo io, const kernels::DeviceCoo& coo,
                                BufferId x, BufferId w,
                                const LayerCache& cache, BufferId dy,
                                bool relu, bool want_dx) {
  const AggMode f = io.model.f;
  const EdgeWeightMode g = io.model.g;
  napa::DenseGrads grads;
  if (!cache.comb_first) {
    napa::DenseGrads dense = napa::apply_dense_backward(
        io.dev, cache.aggr, w, cache.pre_act, dy, relu, want_dx);
    grads.dw = dense.dw;
    grads.db = dense.db;
    if (want_dx) {
      // Backward traverses dst -> src: the framework materializes the
      // reverse format first (paper: COO -> CSC translation in BWP).
      kernels::DeviceCsc csc = graphsim::translate_to_csc(io.dev, coo);
      grads.dx = graphsim::backward_edgewise(
          io.dev, coo, cache.translated_csr, x, cache.weights, dense.dx, f, g);
      kernels::free_graph(io.dev, csc);
      io.dev.free(dense.dx);
    }
    return grads;
  }
  napa::BiasActGrads bias =
      napa::apply_bias_act_backward(io.dev, cache.pre_act, dy, relu);
  grads.db = bias.db;
  kernels::DeviceCsc csc = graphsim::translate_to_csc(io.dev, coo);
  BufferId dt = graphsim::backward_edgewise(io.dev, coo, cache.translated_csr,
                                            cache.transformed, kInvalidBuffer,
                                            bias.dx, f,
                                            EdgeWeightMode::kNone);
  kernels::free_graph(io.dev, csc);
  napa::MatmulGrads mm =
      napa::apply_matmul_backward(io.dev, x, w, dt, want_dx);
  grads.dw = mm.dw;
  grads.dx = mm.dx;
  io.dev.free(dt);
  io.dev.free(bias.dx);
  return grads;
}

void release_cache(gpusim::Device& dev, LayerCache& cache) {
  if (cache.weights != kInvalidBuffer) dev.free(cache.weights);
  if (cache.aggr != kInvalidBuffer) dev.free(cache.aggr);
  if (cache.transformed != kInvalidBuffer) dev.free(cache.transformed);
  if (cache.pre_act != kInvalidBuffer) dev.free(cache.pre_act);
  if (cache.has_translated) kernels::free_graph(dev, cache.translated_csr);
}

}  // namespace

sampling::ReindexFormats BaselineFramework::reindex_formats() const {
  sampling::ReindexFormats formats;
  if (options_.compute == BaselineOptions::Compute::kGraph) {
    formats.coo = true;  // DGL ships COO and translates on device
  } else {
    formats.csr = true;
  }
  return formats;
}

pipeline::PlanOptions BaselineFramework::plan_options() const {
  pipeline::PlanOptions plan;
  plan.strategy = options_.strategy;
  plan.pinned_memory = options_.pinned_memory;
  plan.pipelined_kt = options_.pipelined_kt;
  return plan;
}

void BaselineFramework::prepare(const Dataset& data,
                                const models::GnnModelConfig& model,
                                const BatchSpec& spec,
                                pipeline::BatchContext& ctx) {
  detail::preprocess_into(data, spec, model.num_layers, reindex_formats(),
                          plan_options(), ctx);
}

RunReport BaselineFramework::execute(const Dataset& /*data*/,
                                     const models::GnnModelConfig& model,
                                     models::ModelParams& params,
                                     const BatchSpec& spec,
                                     pipeline::BatchContext& ctx) {
  RunReport report;
  const bool graph_compute =
      options_.compute == BaselineOptions::Compute::kGraph;
  const bool advisor = options_.compute == BaselineOptions::Compute::kAdvisor;
  report.input_table_bytes = ctx.preproc().embeddings.bytes();

  // Explicit combination-first programming exists only for unweighted
  // models in the baselines' user code.
  const bool comb_first = spec.order == OrderPolicy::kCombinationFirst &&
                          model.g == EdgeWeightMode::kNone;

  detail::SgdStage sgd(params, spec.learning_rate);
  try {
    detail::DeviceSession& session = device_session();
    detail::open_session(session, ctx.preproc(), params, reindex_formats());
    gpusim::Device& dev = session.dev;
    LayerIo io{dev, model};

    std::vector<LayerCache> caches;
    detail::LayerStep step;
    step.forward = [&](std::uint32_t l, BufferId x) {
      const bool relu = model.relu_at(l);
      caches.push_back(
          graph_compute
              ? forward_graph(io, session.coo[l], x, session.w[l],
                              session.b[l], relu, comb_first)
              : forward_dl(io, session.csr[l], x, session.w[l], session.b[l],
                           relu, comb_first, advisor));
      if (comb_first)
        report.layer_comb_first_fwd[l] = report.layer_comb_first_bwd[l] = 1;
      return caches.back().out;
    };
    step.backward = [&](std::uint32_t l, BufferId x, BufferId dy,
                        bool want_dx) {
      const bool relu = model.relu_at(l);
      return graph_compute ? backward_graph(io, session.coo[l], x,
                                            session.w[l], caches[l], dy, relu,
                                            want_dx)
                           : backward_dl(io, session.csr[l], x, session.w[l],
                                         caches[l], dy, relu, want_dx);
    };
    step.release = [&](std::uint32_t l) { release_cache(dev, caches[l]); };
    std::vector<detail::LayerPass> passes;
    detail::run_layers(dev, session.input, model, spec, ctx, step, sgd, report,
                       passes);
    detail::finalize_report(report, dev, ctx.schedule(),
                            options_.overlap_compute, &ctx);
  } catch (const gpusim::GpuOomError& e) {
    detail::record_oom(report, e, ctx);
  }
  // The commit point: a success or an OOM applies the staged SGD updates
  // (an OOM's, of the layers whose backward completed); any other
  // exception skips it (detail::SgdStage).
  sgd.commit();
  return report;
}

}  // namespace gt::frameworks
