#include "frameworks/graphtensor.hpp"

#include "dfg/executor.hpp"
#include "dfg/graph.hpp"
#include "frameworks/common.hpp"
#include "frameworks/sharding.hpp"
#include "obs/attrib/kernel_ledger.hpp"
#include "obs/metrics.hpp"
#include "sampling/cache_hierarchy.hpp"
#include "sampling/transfer.hpp"

namespace gt::frameworks {

using dfg::KernelOrder;
using dfg::LayerDims;

std::string GraphTensorFramework::name() const {
  switch (variant_) {
    case Variant::kBase:    return "Base-GT";
    case Variant::kDynamic: return "Dynamic-GT";
    case Variant::kPrepro:  return "Prepro-GT";
  }
  return "?";
}

pipeline::PlanOptions GraphTensorFramework::plan_options() const {
  pipeline::PlanOptions plan;
  if (variant_ == Variant::kPrepro) {
    plan.strategy = pipeline::PreprocStrategy::kServiceWide;
    plan.pinned_memory = true;
    plan.pipelined_kt = true;
  } else {
    plan.strategy = pipeline::PreprocStrategy::kParallelTasks;
  }
  return plan;
}

namespace {
constexpr sampling::ReindexFormats kGtFormats{.coo = false, .csr = true,
                                              .csc = true};
}  // namespace

void GraphTensorFramework::prepare(const Dataset& data,
                                   const models::GnnModelConfig& model,
                                   const BatchSpec& spec,
                                   pipeline::BatchContext& ctx) {
  detail::preprocess_into(data, spec, model.num_layers, kGtFormats,
                          plan_options(), ctx);
  // Sampler lookahead: the batch's vid_order is final here, so its rows
  // are warmable while the previous batch executes. The hint is a pure
  // function of the batch (not of worker overlap), keeping prefetch
  // pricing bit-identical across worker counts.
  if (cache_cfg_.prefetch && cache_cfg_.budget_bytes > 0)
    ctx.arm_cache_prefetch(spec.batch_index);
}

sampling::CacheHierarchy& GraphTensorFramework::ensure_hierarchy(
    const Dataset& data) {
  const bool hit = hierarchy_ && hier_graph_ == &data.csr &&
                   hier_table_ == &data.embeddings;
  if (!hit) {
    sampling::CacheConfig cfg = cache_cfg_;
    cfg.pcie = plan_options().pcie;
    hierarchy_ = std::make_unique<sampling::CacheHierarchy>(
        data.csr, data.embeddings, cfg);
    hier_graph_ = &data.csr;
    hier_table_ = &data.embeddings;
    obs::metrics().counter("cache.hierarchy_builds").add(1);
  }
  return *hierarchy_;
}

RunReport GraphTensorFramework::execute(const Dataset& data,
                                        const models::GnnModelConfig& model,
                                        models::ModelParams& params,
                                        const BatchSpec& spec,
                                        pipeline::BatchContext& ctx) {
  RunReport report;
  const std::uint32_t L = model.num_layers;
  const pipeline::PlanOptions plan = plan_options();

  pipeline::PreprocResult& pre = ctx.preproc();
  report.input_table_bytes = pre.embeddings.bytes();
  const bool use_cache = cache_cfg_.budget_bytes > 0;
  // A cache-disabled run must not report a stale rate from an earlier
  // cache-enabled run on the same framework instance.
  if (!use_cache) last_hit_rate_ = 0.0;

  const bool dkp_active = variant_ != Variant::kBase &&
                          kernels::dkp_compatible(model.g);
  dfg::DfgGraph graph = dfg::build_gnn_dfg(L, model.edge_weighted());
  if (dkp_active) graph.rewrite_dkp();
  auto dims_of = [&](std::uint32_t l) {
    return LayerDims{pre.batch.layer_vertices(l), pre.batch.layer_dst(l),
                     pre.batch.layer_edges(l), params.in_dim(l),
                     params.out_dim(l)};
  };

  // What the batch stages for the commit point after the try block: the
  // SGD updates, the cache lookup (lookup() classifies against the
  // current tiers without mutating them), the placement decisions, the
  // completed layer passes (the cost-model samples) and the priced
  // collectives.
  detail::SgdStage sgd(params, spec.learning_rate);
  sampling::CacheHierarchy::Lookup cache_look;
  sampling::PinnedRingBuffer::Overlap ring_ov;
  bool cache_active = false;
  std::vector<KernelOrder> orders;  // empty until placement is decided
  std::vector<detail::LayerPass> passes;
  detail::ShardedExecution sx;
  const bool sharded = shard_.devices > 1;

  try {
    detail::DeviceSession& session = device_session();
    detail::open_session(session, pre, params, kGtFormats,
                         /*upload_input=*/!use_cache);
    gpusim::Device& dev = session.dev;

    if (use_cache) {
      // Embedding cache hierarchy (DESIGN.md §15): the static tier is
      // device-resident for the dataset's lifetime; dynamic and prefetch
      // hits are re-priced out of the critical K/T path; only true misses
      // keep their full lookup + transfer cost in the schedule.
      sampling::CacheHierarchy& hier = ensure_hierarchy(data);
      ctx.set_cache_hierarchy(&hier);
      cache_look = hier.lookup(pre.batch.vid_order, spec.batch_index,
                               ctx.cache_prefetch_armed(spec.batch_index));
      cache_active = true;
      ctx.workload().cached_rows = cache_look.cached_rows();
      ctx.schedule() = pipeline::plan_preprocessing(ctx.workload(), plan);

      // Every non-static row (dynamic/prefetch hits included, so numerics
      // stay bit-identical to an uncached gather) streams through the
      // pinned ring buffer: chunked K gathers overlapping chunked T
      // uploads, priced through the same PCIe model as the schedule. The
      // rows are the ones prepare's K stage synthesized. The staging
      // buffer is a footprint, allocated and charged like an
      // upload_matrix; assemble copies each row once, straight from the
      // prepared table into the input table.
      const std::size_t gather_n = cache_look.gather_rows.size();
      gpusim::BufferId gather_buf = gpusim::kInvalidBuffer;
      if (gather_n > 0) {
        gather_buf = dev.alloc_f32(gather_n, data.spec.feature_dim,
                                   "cache.gathered",
                                   gpusim::HostStorage::kNone);
        dev.charge_alloc_overhead("upload_matrix");
      }
      sampling::Transfer staging(dev, gpusim::PcieModel(plan.pcie),
                                 /*pinned=*/true);
      ring_ov = hier.ring().gather_prepared(pre.embeddings,
                                            cache_look.gather_rows, staging,
                                            plan.cost.us_per_lookup_byte);
      const gpusim::BufferId static_buf = hier.bind_static(dev);
      session.input = hier.assemble(
          dev, static_buf, cache_look, gather_buf,
          {.table = pre.embeddings, .by_destination = true},
          pre.batch.vid_order.size());
      if (gather_buf != gpusim::kInvalidBuffer) dev.free(gather_buf);
      if (static_buf != gpusim::kInvalidBuffer) dev.free(static_buf);
      dev.clear_profile();  // staging/assembly is not FWP/BWP work
    }

    // Placement decision per layer (one decision covers FWP + BWP; the
    // backward pass reuses the forward's cached tensors).
    orders.assign(L, KernelOrder::kAggregationFirst);
    for (std::uint32_t l = 0; l < L; ++l) {
      if (spec.order == OrderPolicy::kCombinationFirst &&
          kernels::dkp_compatible(model.g)) {
        orders[l] = KernelOrder::kCombinationFirst;
      } else if (spec.order == OrderPolicy::kDynamic && dkp_active &&
                 graph.has_dkp(l)) {
        if (cost_model_.fitted()) {
          orders[l] = spec.inference
                          ? cost_model_.decide(dims_of(l), false, false,
                                               model.edge_weighted())
                          : cost_model_.decide_training(
                                dims_of(l), l == 0, model.edge_weighted());
        } else if (spec.inference) {
          orders[l] = cost_model_.decide(dims_of(l), false, false,
                                         model.edge_weighted());
        } else {
          // Exploration phase: alternate placements across batches so the
          // least-squares fit sees both.
          orders[l] = (spec.batch_index + l) % 2 == 0
                          ? KernelOrder::kAggregationFirst
                          : KernelOrder::kCombinationFirst;
        }
      }
      if (orders[l] == KernelOrder::kCombinationFirst)
        report.layer_comb_first_fwd[l] = report.layer_comb_first_bwd[l] = 1;
    }

    dfg::LayerExecutor exec(dev, model.f, model.g);
    std::vector<dfg::LayerForward> fwds;
    auto graph_of = [&](std::uint32_t l) {
      return dfg::LayerDeviceGraph{session.csr[l], session.csc[l]};
    };
    auto params_of = [&](std::uint32_t l) {
      return dfg::LayerParams{session.w[l], session.b[l]};
    };
    detail::LayerStep step;
    step.forward = [&](std::uint32_t l, gpusim::BufferId x) {
      fwds.push_back(exec.forward(graph_of(l), x, params_of(l),
                                  model.relu_at(l), orders[l]));
      return fwds.back().out;
    };
    step.backward = [&](std::uint32_t l, gpusim::BufferId x,
                        gpusim::BufferId dy, bool want_dx) {
      const dfg::LayerBackward g =
          exec.backward(graph_of(l), x, params_of(l), model.relu_at(l),
                        fwds[l], dy, want_dx);
      return kernels::napa::DenseGrads{g.dx, g.dw, g.db};
    };
    step.release = [&](std::uint32_t l) { exec.release_cache(fwds[l]); };
    detail::run_layers(dev, session.input, model, spec, ctx, step, sgd, report,
                       passes);

    // Multi-device execution is a modeled decomposition of the canonical
    // run (DESIGN.md §14): attribute the complete profile over the layer
    // passes' slices, price the strategy's collectives, and merge the
    // group timeline before the report is finalized.
    const detail::ShardedExecution* sp = nullptr;
    if (sharded) {
      std::vector<detail::LayerSlice> slices;
      for (const detail::LayerPass& p : passes) slices.push_back(p.slice);
      detail::CacheBatchVolumes cache_vol;
      if (cache_active) {
        cache_vol.static_hits = cache_look.static_rows.size();
        cache_vol.dynamic_hits = cache_look.dynamic_hits;
        cache_vol.prefetch_hits = cache_look.prefetch_hits;
        cache_vol.misses = cache_look.misses;
        cache_vol.evictions = cache_look.expected_evictions;
      }
      sx = detail::shard_execution(
          dev.profile(), std::move(slices),
          detail::build_shard_plan(pre, params, L, shard_),
          dev.config().cost.launch_overhead_us,
          cache_active ? &cache_vol : nullptr);
      sp = &sx;
    }
    detail::finalize_report(report, dev, ctx.schedule(),
                            /*overlap_compute=*/true, &ctx, sp);
  } catch (const gpusim::GpuOomError& e) {
    detail::record_oom(report, e, ctx);
  }

  // The commit point (DESIGN.md §18). A success or an OOM applies what
  // the batch staged — an OOM's, up to the pass the allocator stopped.
  // Any other exception (an injected fault the service retries) unwinds
  // past it, so the retry starts from exactly the state a fault-free run
  // sees.
  sgd.commit();
  // Collectives feed the cost model's collective term (reporting only,
  // never placement decisions).
  for (const gpusim::CollectiveCost& cc : sx.priced)
    cost_model_.record_collective(cc.steps, cc.bytes_on_wire, cc.us);
  if (cache_active) {
    sampling::CacheHierarchy& hier = *hierarchy_;
    const std::uint64_t evictions_before = hier.stats().evictions;
    hier.commit(cache_look, report.fwp_us + report.bwp_us);
    last_hit_rate_ = cache_look.hit_rate();
    obs::MetricsRegistry& m = obs::metrics();
    // Legacy totals (gt_top's cache line) plus the per-tier breakdown.
    m.gauge("embedding_cache.hit_rate").set(last_hit_rate_);
    m.counter("embedding_cache.hits").add(cache_look.cached_rows());
    m.counter("embedding_cache.misses").add(cache_look.misses);
    m.counter("cache.static.hits").add(cache_look.static_rows.size());
    m.counter("cache.dynamic.hits").add(cache_look.dynamic_hits);
    m.counter("cache.prefetch.hits").add(cache_look.prefetch_hits);
    m.counter("cache.misses").add(cache_look.misses);
    m.counter("cache.evictions")
        .add(hier.stats().evictions - evictions_before);
    m.counter("cache.prefetch.rows").add(cache_look.prefetched);
    m.counter("cache.ring.chunks").add(ring_ov.chunks);
    m.counter("cache.ring.bytes").add(ring_ov.bytes);
    m.gauge("cache.ring.critical_us").set(ring_ov.critical_us);
    m.gauge("cache.ring.overlap_us").set(ring_ov.overlapped_us());
    m.gauge("cache.dynamic.occupancy")
        .set(static_cast<double>(hier.dynamic_size_rows()));
  }
  for (const KernelOrder order : orders)
    obs::metrics()
        .counter(order == KernelOrder::kCombinationFirst
                     ? "dkp.decisions.comb_first"
                     : "dkp.decisions.agg_first")
        .add(1);
  if (dkp_active) {
#ifndef GT_OBS_DISABLE
    // Ledger join: pair each sample with the model's prediction *for the
    // coefficients that were live when the batch ran* (read before
    // record() extends the sample set; fit() only runs afterwards).
    // predict() is const — arming the ledger cannot perturb training.
    const bool ledger_on = obs::attrib::KernelLedger::global().armed();
    const bool was_fitted = cost_model_.fitted();
#endif
    for (const detail::LayerPass& p : passes) {
      const std::uint32_t l = p.slice.layer;
      const dfg::PlacementCase pc{orders[l], p.slice.backward,
                                  /*first_layer=*/l == 0,
                                  model.edge_weighted()};
#ifndef GT_OBS_DISABLE
      if (ledger_on) {
        std::string key = pc.backward ? "bwd/" : "fwd/";
        key += dfg::to_string(pc.order);
        key += "/L";
        key += std::to_string(l);
        obs::attrib::KernelLedger::global().record_prediction(
            key, cost_model_.predict(dims_of(l), pc), p.us, was_fitted);
      }
#endif
      cost_model_.record(dims_of(l), pc, p.us);
    }
  }
  ++batches_seen_;
#ifndef GT_OBS_DISABLE
  // Live model-health surface (gauges + drift event); independent of the
  // ledger so chaos/serving runs see drift without any artifact.
  if (cost_model_.fitted()) {
    const dfg::ResidualSummary rs = cost_model_.residual_summary();
    obs::attrib::observe_costmodel_residuals(rs.samples, rs.p50_pct,
                                             rs.p95_pct);
  }
#endif
  // Fit once enough batches have run, after a training batch only: an
  // inference batch never fits, whatever its outcome.
  if (!spec.inference && batches_seen_ >= kFitAfterBatches) {
    if (dkp_active && !cost_model_.fitted()) cost_model_.fit();
    if (sharded && !cost_model_.collective_fitted())
      cost_model_.fit_collective();
  }
  return report;
}

}  // namespace gt::frameworks
