#include "frameworks/graphtensor.hpp"

#include "dfg/executor.hpp"
#include "dfg/graph.hpp"
#include "frameworks/common.hpp"
#include "frameworks/sharding.hpp"
#include "obs/attrib/kernel_ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
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
  const sampling::ReindexFormats formats = kGtFormats;
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

  // Cost-model samples and SGD updates are buffered and committed only
  // when the batch reaches a reported outcome (success or OOM). An
  // exception unwinding out of this function — an injected fault the
  // service will retry — must leave the framework state AND the model
  // parameters untouched, or the retried batch would diverge from a
  // fault-free run.
  detail::SgdStage sgd(params, spec.learning_rate);

  // Multi-device execution is a modeled decomposition of the canonical
  // run (DESIGN.md §14): the plan is derived from the real preprocessed
  // layer structures up front; layer slices of the profile are captured
  // around each exec call; the post-pass attributes, prices collectives,
  // and merges the group timeline. Numerics below are untouched — except
  // the tensor-parallel SGD commit, which applies the same gradient as
  // disjoint per-device row slices (bit-identical by independence).
  const bool sharded = shard_.devices > 1;
  detail::ShardPlan shard_plan;
  std::vector<detail::LayerSlice> slices;
  if (sharded) {
    shard_plan = detail::build_shard_plan(pre, params, L, shard_);
    if (shard_.strategy == ShardStrategy::kTensorParallel)
      sgd.set_device_row_slices(&shard_plan.sgd_row_boundaries);
  }

  struct PendingSample {
    LayerDims dims;
    dfg::PlacementCase pc;
    double us;
    std::uint32_t layer;
  };
  std::vector<PendingSample> pending;
  auto commit_samples = [&] {
#ifndef GT_OBS_DISABLE
    // Ledger join: pair each committed sample with the model's prediction
    // *for the coefficients that were live when the batch ran* (captured
    // before record() extends the sample set; fit() only runs afterwards).
    // predict() is const — arming the ledger cannot perturb training.
    const bool ledger_on = obs::attrib::KernelLedger::global().armed();
    const bool was_fitted = cost_model_.fitted();
#endif
    for (const PendingSample& s : pending) {
#ifndef GT_OBS_DISABLE
      if (ledger_on) {
        std::string key = s.pc.backward ? "bwd/" : "fwd/";
        key += dfg::to_string(s.pc.order);
        key += "/L";
        key += std::to_string(s.layer);
        obs::attrib::KernelLedger::global().record_prediction(
            key, cost_model_.predict(s.dims, s.pc), s.us, was_fitted);
      }
#endif
      cost_model_.record(s.dims, s.pc, s.us);
    }
    pending.clear();
    ++batches_seen_;
#ifndef GT_OBS_DISABLE
    // Live model-health surface (gauges + drift event); independent of
    // the ledger so chaos/serving runs see drift without any artifact.
    if (cost_model_.fitted()) {
      const dfg::ResidualSummary rs = cost_model_.residual_summary();
      obs::attrib::observe_costmodel_residuals(rs.samples, rs.p50_pct,
                                               rs.p95_pct);
    }
#endif
  };

  // Cache hierarchy state is transactional like the SGD/cost-model stages
  // above: lookup() classifies against the current tiers without mutating
  // them, and commit_cache (below) applies the staged admissions only
  // once the batch reaches a reported outcome.
  sampling::CacheHierarchy::Lookup cache_look;
  sampling::PinnedRingBuffer::Overlap ring_ov;
  bool cache_active = false;
  auto commit_cache = [&] {
    if (!cache_active) return;
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
  };

  try {
    detail::DeviceSession& session = device_session();
    detail::open_session(session, pre, params, formats,
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

    dfg::LayerExecutor exec(dev, model.f, model.g);

    std::vector<dfg::LayerDeviceGraph> lg(L);
    for (std::uint32_t l = 0; l < L; ++l)
      lg[l] = dfg::LayerDeviceGraph{session.csr[l], session.csc[l]};

    auto dims_of = [&](std::uint32_t l) {
      return LayerDims{pre.batch.layer_vertices(l), pre.batch.layer_dst(l),
                       pre.batch.layer_edges(l), params.in_dim(l),
                       params.out_dim(l)};
    };

    // Placement decision per layer (one decision covers FWP + BWP; the
    // backward pass reuses the forward's cached tensors).
    std::vector<KernelOrder> orders(L, KernelOrder::kAggregationFirst);
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
      obs::metrics()
          .counter(orders[l] == KernelOrder::kCombinationFirst
                       ? "dkp.decisions.comb_first"
                       : "dkp.decisions.agg_first")
          .add(1);
    }

    // ---- FWP ----------------------------------------------------------------
    std::vector<dfg::LayerForward> fwds;
    gpusim::BufferId x = session.input;
    dev.set_phase(gpusim::KernelPhase::kForward);
    {
      GT_OBS_STAGE(fwp_span, kForward, "FWP", "FWP");
      for (std::uint32_t l = 0; l < L; ++l) {
        const double before = dev.profile_latency_us();
        const std::size_t slice_lo = dev.profile().size();
        fwds.push_back(exec.forward(
            lg[l], x, dfg::LayerParams{session.w[l], session.b[l]},
            model.relu_at(l), orders[l]));
        if (sharded)
          slices.push_back({l, /*backward=*/false, slice_lo,
                            dev.profile().size()});
        if (dkp_active)
          pending.push_back(
              {dims_of(l),
               dfg::PlacementCase{orders[l], /*backward=*/false,
                                  /*first_layer=*/l == 0,
                                  model.edge_weighted()},
               dev.profile_latency_us() - before, l});
        x = fwds.back().out;
      }
    }

    report.fwp_us = dev.profile_latency_us();

    // Shared report tail: when sharded, attribute the complete profile,
    // price the strategy's collectives (also fed to the cost model's
    // collective term — reporting only, never placement decisions), and
    // merge the group timeline before the report is finalized.
    auto finalize = [&] {
      detail::ShardedExecution sx;
      const detail::ShardedExecution* sp = nullptr;
      if (sharded) {
        detail::CacheBatchVolumes cache_vol;
        const detail::CacheBatchVolumes* cp = nullptr;
        if (cache_active) {
          cache_vol.static_hits = cache_look.static_rows.size();
          cache_vol.dynamic_hits = cache_look.dynamic_hits;
          cache_vol.prefetch_hits = cache_look.prefetch_hits;
          cache_vol.misses = cache_look.misses;
          cache_vol.evictions = cache_look.expected_evictions;
          cp = &cache_vol;
        }
        sx = detail::shard_execution(dev.profile(), slices, shard_plan,
                                     dev.config().cost.launch_overhead_us,
                                     cp);
        for (const gpusim::CollectiveCost& cc : sx.priced)
          cost_model_.record_collective(cc.steps, cc.bytes_on_wire, cc.us);
        sp = &sx;
      }
      detail::finalize_report(report, dev, ctx.schedule(),
                              /*overlap_compute=*/true, &ctx, sp);
    };

    if (spec.inference) {
      finalize();
      commit_cache();
      commit_samples();
      return report;
    }

    // Loss + backward both land past the fwp_us boundary, so they carry
    // the backward phase tag — matching bwp_us = total - fwp_us below.
    dev.set_phase(gpusim::KernelPhase::kBackward);

    // ---- Loss ----------------------------------------------------------------
    gpusim::BufferId dy = gpusim::kInvalidBuffer;
    report.loss = detail::loss_head(dev, x, pre, model.output_dim, spec.seed,
                                    &dy, &ctx);

    // ---- BWP ----------------------------------------------------------------
    {
      GT_OBS_STAGE(bwp_span, kBackward, "BWP", "BWP");
      for (std::uint32_t li = L; li-- > 0;) {
        const gpusim::BufferId x_in =
            li == 0 ? session.input : fwds[li - 1].out;
        const double before = dev.profile_latency_us();
        const std::size_t slice_lo = dev.profile().size();
        dfg::LayerBackward grads = exec.backward(
            lg[li], x_in, dfg::LayerParams{session.w[li], session.b[li]},
            model.relu_at(li), fwds[li], dy, /*want_dx=*/li > 0);
        if (sharded)
          slices.push_back({li, /*backward=*/true, slice_lo,
                            dev.profile().size()});
        if (dkp_active)
          pending.push_back(
              {dims_of(li),
               dfg::PlacementCase{orders[li], /*backward=*/true,
                                  /*first_layer=*/li == 0,
                                  model.edge_weighted()},
               dev.profile_latency_us() - before, li});
        sgd.stage(dev, li, grads.dw, grads.db, ctx);
        dev.free(grads.dw);
        dev.free(grads.db);
        dev.free(dy);
        dy = grads.dx;  // invalid at li == 0 (skipped), loop ends anyway
        exec.release_cache(fwds[li]);
      }
    }

    report.bwp_us = dev.profile_latency_us() - report.fwp_us;
    finalize();
  } catch (const gpusim::GpuOomError& e) {
    detail::record_oom(report, e, ctx);
  }

  // Reported outcome (success or OOM): commit what the batch earned. The
  // OOM commit applies exactly the layers whose backward completed before
  // the allocator gave out — the same updates an eager apply performed.
  sgd.commit();
  commit_cache();
  commit_samples();
  if (dkp_active && !cost_model_.fitted() &&
      batches_seen_ >= kFitAfterBatches) {
    cost_model_.fit();
  }
  if (sharded && !cost_model_.collective_fitted() &&
      batches_seen_ >= kFitAfterBatches) {
    cost_model_.fit_collective();
  }
  return report;
}

}  // namespace gt::frameworks
