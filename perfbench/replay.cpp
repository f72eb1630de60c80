#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common.hpp"
#include "dfg/executor.hpp"
#include "dfg/graph.hpp"
#include "frameworks/common.hpp"
#include "frameworks/graphtensor.hpp"
#include "pipeline/plan.hpp"
#include "pipeline/workload.hpp"
#include "sampling/reindex.hpp"
#include "sampling/transfer.hpp"

namespace perfbench {

namespace fw = gt::frameworks;

namespace {

double us_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Prepro-GT's formats and schedule options (GraphTensorFramework).
constexpr gt::sampling::ReindexFormats kGtFormats{.coo = false, .csr = true,
                                                  .csc = true};

gt::pipeline::PlanOptions prepro_plan_options() {
  gt::pipeline::PlanOptions plan;
  plan.strategy = gt::pipeline::PreprocStrategy::kServiceWide;
  plan.pinned_memory = true;
  plan.pipelined_kt = true;
  return plan;
}

}  // namespace

// ---------------------------------------------------------------------------
// FrameworkRun

FrameworkRun::FrameworkRun(const gt::Dataset& data,
                           const gt::models::GnnModelConfig& model,
                           std::uint64_t seed,
                           const gt::sampling::CacheConfig& cache)
    : data_(data),
      model_(model),
      params_(model_, data.spec.feature_dim, seed),
      backend_(fw::make_framework("Prepro-GT")) {
  if (cache.budget_bytes > 0) backend_->configure_cache(cache);
}

fw::RunReport FrameworkRun::run(const fw::BatchSpec& spec, double* prepare_us,
                                double* execute_us) {
  auto t0 = std::chrono::steady_clock::now();
  ctx_.begin_batch();
  backend_->prepare_batch(data_, model_, spec, ctx_);
  *prepare_us += us_since(t0);
  t0 = std::chrono::steady_clock::now();
  fw::RunReport r =
      backend_->execute_prepared(data_, model_, params_, spec, ctx_);
  *execute_us += us_since(t0);
  return r;
}

// ---------------------------------------------------------------------------
// TracedReplay

TracedReplay::TracedReplay(const gt::Dataset& data,
                           const gt::models::GnnModelConfig& model,
                           std::uint64_t seed,
                           const gt::sampling::CacheConfig& cache,
                           SpanRecorder& spans)
    : data_(data),
      model_(model),
      params_(model_, data.spec.feature_dim, seed),
      cache_(cache),
      plan_(prepro_plan_options()),
      lookup_(data.embeddings),
      spans_(spans) {
  if (cache_.budget_bytes > 0) {
    gt::sampling::CacheConfig cfg = cache_;
    cfg.pcie = plan_.pcie;
    hierarchy_ = std::make_unique<gt::sampling::CacheHierarchy>(
        data.csr, data.embeddings, cfg);
  }
}

fw::RunReport TracedReplay::run(const fw::BatchSpec& spec) {
  prepare(spec);
  return execute(spec);
}

// Mirrors GraphTensorFramework::prepare_batch: detail::preprocess_into
// unrolled into PreprocExecutor::run_serial_into's three calls.
void TracedReplay::prepare(const fw::BatchSpec& spec) {
  auto envelope = spans_.scope("frameworks.prepare");
  const std::uint32_t L = model_.num_layers;
  ctx_.begin_batch();
  gt::pipeline::PreprocExecutor& exec =
      ctx_.executor_for(data_.csr, data_.embeddings, data_.spec.fanout, L,
                        spec.seed, kGtFormats);
  ctx_.batch_vids() =
      exec.sampler().pick_batch(spec.batch_size, spec.batch_index);
  gt::pipeline::PreprocResult& out = ctx_.preproc();
  gt::pipeline::PreprocScratch& scratch = ctx_.scratch();
  out.clear_for_reuse();
  scratch.layer_coo.resize(L);
  out.layers.resize(L);
  {
    auto s = spans_.scope("sampling.sample");
    exec.sampler().sample_into(ctx_.batch_vids(), L, ctx_.table(), out.batch);
  }
  for (std::uint32_t l = 0; l < L; ++l) {
    auto s = spans_.scope("sampling.reindex");
    gt::sampling::reindex_layer_into(out.batch, ctx_.table(), l, kGtFormats,
                                     out.layers[l], scratch.layer_coo[l]);
  }
  {
    auto s = spans_.scope("sampling.lookup");
    out.embeddings.resize(out.batch.vid_order.size(), lookup_.table().dim());
    lookup_.gather_chunk(out.batch.vid_order, 0, out.batch.vid_order.size(),
                         out.embeddings);
  }
  out.hash_acquisitions = ctx_.table().lock_acquisitions();
  out.hash_contended = ctx_.table().contended_acquisitions();
  ctx_.workload() =
      gt::pipeline::workload_from(out.batch, data_.spec.feature_dim);
  {
    auto s = spans_.scope("pipeline.plan");
    ctx_.schedule() = gt::pipeline::plan_preprocessing(ctx_.workload(), plan_);
  }
  if (cache_.prefetch && cache_.budget_bytes > 0)
    ctx_.arm_cache_prefetch(spec.batch_index);
  for (const gt::sampling::HopEdges& hop : out.batch.hops)
    counts_.sampled_edges += hop.num_edges();
}

// Mirrors GraphTensorFramework::execute_prepared for one device, minus its
// metric and ledger emission (observability only; no modeled value reads
// it back).
fw::RunReport TracedReplay::execute(const fw::BatchSpec& spec) {
  auto envelope = spans_.scope("frameworks.execute");
  fw::RunReport report;
  report.framework = "Prepro-GT";
  report.model = model_.name;
  report.dataset = data_.spec.name;

  const std::uint32_t L = model_.num_layers;
  gt::pipeline::PreprocResult& pre = ctx_.preproc();
  report.input_table_bytes = pre.embeddings.bytes();
  const bool use_cache = hierarchy_ != nullptr;
  const bool dkp_active = gt::kernels::dkp_compatible(model_.g);
  gt::dfg::DfgGraph graph =
      gt::dfg::build_gnn_dfg(L, model_.edge_weighted());
  if (dkp_active) graph.rewrite_dkp();
  fw::detail::SgdStage sgd(params_, spec.learning_rate);

  struct PendingSample {
    gt::dfg::LayerDims dims;
    gt::dfg::PlacementCase pc;
    double us;
  };
  std::vector<PendingSample> pending;
  auto commit_samples = [&] {
    for (const PendingSample& s : pending)
      cost_model_.record(s.dims, s.pc, s.us);
    pending.clear();
    ++batches_seen_;
  };

  gt::sampling::CacheHierarchy::Lookup look;
  bool cache_active = false;
  auto commit_cache = [&] {
    if (!cache_active) return;
    auto s = spans_.scope("cache.commit");
    hierarchy_->commit(look, report.fwp_us + report.bwp_us);
    counts_.cache_rows += look.total_rows();
    counts_.cache_hit_rows += look.cached_rows();
  };

  try {
    std::unique_ptr<fw::detail::DeviceSession> session;
    {
      auto s = spans_.scope("frameworks.session");
      session = fw::detail::open_session(pre, params_, kGtFormats,
                                         /*upload_input=*/!use_cache);
    }
    gt::gpusim::Device& dev = session->dev;

    if (use_cache) {
      gt::sampling::CacheHierarchy& hier = *hierarchy_;
      ctx_.set_cache_hierarchy(&hier);
      {
        auto s = spans_.scope("cache.lookup");
        look = hier.lookup(pre.batch.vid_order, spec.batch_index,
                           ctx_.cache_prefetch_armed(spec.batch_index));
      }
      cache_active = true;
      ctx_.workload().cached_rows = look.cached_rows();
      {
        auto s = spans_.scope("pipeline.plan");
        ctx_.schedule() =
            gt::pipeline::plan_preprocessing(ctx_.workload(), plan_);
      }
      gt::MatrixView gathered = ctx_.arena().alloc(look.gather_vids.size(),
                                                   data_.spec.feature_dim);
      gt::sampling::Transfer staging(dev, gt::gpusim::PcieModel(plan_.pcie),
                                     /*pinned=*/true);
      {
        auto s = spans_.scope("cache.gather");
        hier.ring().gather_through(data_.embeddings, look.gather_vids,
                                   gathered, staging,
                                   plan_.cost.us_per_lookup_byte);
      }
      auto s = spans_.scope("cache.assemble");
      gt::gpusim::BufferId gather_buf = gt::gpusim::kInvalidBuffer;
      if (!look.gather_vids.empty())
        gather_buf = gt::kernels::upload_matrix(dev, gathered, "cache.gathered");
      const gt::gpusim::BufferId static_buf = hier.bind_static(dev);
      session->input = hier.assemble(dev, static_buf, look, gather_buf,
                                     pre.batch.vid_order.size());
      if (gather_buf != gt::gpusim::kInvalidBuffer) dev.free(gather_buf);
      if (static_buf != gt::gpusim::kInvalidBuffer) dev.free(static_buf);
      dev.clear_profile();
    }

    gt::dfg::LayerExecutor exec(dev, model_.f, model_.g);
    std::vector<gt::dfg::LayerDeviceGraph> lg(L);
    for (std::uint32_t l = 0; l < L; ++l)
      lg[l] = gt::dfg::LayerDeviceGraph{session->csr[l], session->csc[l]};
    auto dims_of = [&](std::uint32_t l) {
      return gt::dfg::LayerDims{pre.batch.layer_vertices(l),
                                pre.batch.layer_dst(l),
                                pre.batch.layer_edges(l), params_.in_dim(l),
                                params_.out_dim(l)};
    };

    // Dynamic kernel placement, as the orchestrator decides it.
    using gt::dfg::KernelOrder;
    std::vector<KernelOrder> orders(L, KernelOrder::kAggregationFirst);
    for (std::uint32_t l = 0; l < L; ++l) {
      if (dkp_active && graph.has_dkp(l)) {
        if (cost_model_.fitted()) {
          orders[l] = spec.inference
                          ? cost_model_.decide(dims_of(l), false, false,
                                               model_.edge_weighted())
                          : cost_model_.decide_training(
                                dims_of(l), l == 0, model_.edge_weighted());
        } else if (spec.inference) {
          orders[l] = cost_model_.decide(dims_of(l), false, false,
                                         model_.edge_weighted());
        } else {
          orders[l] = (spec.batch_index + l) % 2 == 0
                          ? KernelOrder::kAggregationFirst
                          : KernelOrder::kCombinationFirst;
        }
      }
      if (orders[l] == KernelOrder::kCombinationFirst)
        report.layer_comb_first_fwd[l] = report.layer_comb_first_bwd[l] = 1;
    }

    std::vector<gt::dfg::LayerForward> fwds;
    gt::gpusim::BufferId x = session->input;
    dev.set_phase(gt::gpusim::KernelPhase::kForward);
    for (std::uint32_t l = 0; l < L; ++l) {
      const double before = dev.profile_latency_us();
      {
        auto s = spans_.scope("dfg.forward");
        fwds.push_back(exec.forward(
            lg[l], x, gt::dfg::LayerParams{session->w[l], session->b[l]},
            model_.relu_at(l), orders[l]));
      }
      if (dkp_active)
        pending.push_back({dims_of(l),
                           gt::dfg::PlacementCase{orders[l], false, l == 0,
                                                  model_.edge_weighted()},
                           dev.profile_latency_us() - before});
      x = fwds.back().out;
    }
    report.fwp_us = dev.profile_latency_us();

    if (!spec.inference) {
      dev.set_phase(gt::gpusim::KernelPhase::kBackward);
      gt::gpusim::BufferId dy = gt::gpusim::kInvalidBuffer;
      {
        auto s = spans_.scope("frameworks.loss");
        report.loss = fw::detail::loss_head(dev, x, pre, model_.output_dim,
                                            spec.seed, &dy, &ctx_);
      }
      for (std::uint32_t li = L; li-- > 0;) {
        const gt::gpusim::BufferId x_in =
            li == 0 ? session->input : fwds[li - 1].out;
        const double before = dev.profile_latency_us();
        gt::dfg::LayerBackward grads;
        {
          auto s = spans_.scope("dfg.backward");
          grads = exec.backward(
              lg[li], x_in, gt::dfg::LayerParams{session->w[li], session->b[li]},
              model_.relu_at(li), fwds[li], dy, /*want_dx=*/li > 0);
        }
        if (dkp_active)
          pending.push_back({dims_of(li),
                             gt::dfg::PlacementCase{orders[li], true, li == 0,
                                                    model_.edge_weighted()},
                             dev.profile_latency_us() - before});
        {
          auto s = spans_.scope("frameworks.sgd");
          sgd.stage(dev, li, grads.dw, grads.db, ctx_);
        }
        dev.free(grads.dw);
        dev.free(grads.db);
        dev.free(dy);
        dy = grads.dx;
        exec.release_cache(fwds[li]);
      }
      report.bwp_us = dev.profile_latency_us() - report.fwp_us;
    }
    fw::detail::finalize_report(report, dev, ctx_.schedule(),
                                /*overlap_compute=*/true, &ctx_, nullptr);
    for (const gt::gpusim::KernelStats& k : dev.profile()) {
      counts_.blocks += k.blocks;
      counts_.sm_cache_hit_bytes += k.cache_hit_bytes;
      counts_.sm_cache_loaded_bytes += k.cache_loaded_bytes;
    }
  } catch (const gt::gpusim::GpuOomError& e) {
    fw::detail::record_oom(report, e, ctx_);
  }

  if (!spec.inference) {
    auto s = spans_.scope("frameworks.sgd");
    sgd.commit();
  }
  commit_cache();
  commit_samples();
  // Forward-only batches never fit the cost model (execute_prepared
  // returns before its fit step on the inference path).
  if (!spec.inference && dkp_active && !cost_model_.fitted() &&
      batches_seen_ >= fw::GraphTensorFramework::kFitAfterBatches)
    cost_model_.fit();

  counts_.kernel_launches += report.kernel_launches;
  counts_.flops += report.flops;
  counts_.arena_peak_bytes =
      std::max(counts_.arena_peak_bytes, report.arena_peak_bytes);
  return report;
}

// ---------------------------------------------------------------------------
// Serving

gt::serving::Tick serve_estimate(const fw::RunReport& warmup) {
  if (!warmup.ok()) return 1'000;
  return std::max<gt::serving::Tick>(
      1, static_cast<gt::serving::Tick>(std::llround(warmup.end_to_end_us)));
}

std::vector<gt::serving::PlannedBatch> plan_serve(
    gt::serving::ServePlanner& planner) {
  std::vector<gt::serving::PlannedBatch> planned;
  while (std::optional<gt::serving::PlannedBatch> b = planner.next())
    planned.push_back(std::move(*b));
  planner.finish();
  return planned;
}

gt::serving::ServeReport price_serve(
    const gt::serving::ServeConfig& config, gt::serving::Tick est,
    gt::serving::ServePlanner& planner,
    const std::vector<gt::serving::PlannedBatch>& planned,
    const std::vector<fw::RunReport>& reports) {
  using gt::serving::Tick;
  Tick lane_free = 0;
  std::vector<Tick> latencies;
  std::uint64_t completed = 0, degraded = 0, goodput = 0, boarded = 0;
  std::vector<gt::serving::RequestRecord>& recs = planner.records();
  for (std::size_t i = 0; i < planned.size(); ++i) {
    const gt::serving::PlannedBatch& b = planned[i];
    const fw::RunReport& r = reports[i];
    const Tick start = std::max(lane_free, b.form_tick);
    const Tick dur =
        r.ok() ? std::max<Tick>(
                     1, static_cast<Tick>(std::llround(r.end_to_end_us)))
               : est;
    lane_free = start + dur;
    boarded += b.request_ids.size();
    for (const std::uint64_t id : b.request_ids) {
      gt::serving::RequestRecord& rec = recs[id];
      if (r.ok()) {
        rec.outcome = gt::serving::Outcome::kCompleted;
        rec.latency_ticks = lane_free - rec.arrival_tick;
        latencies.push_back(rec.latency_ticks);
        ++completed;
        if (config.slo_ticks == 0 || rec.latency_ticks <= config.slo_ticks)
          ++goodput;
      } else {
        rec.outcome = gt::serving::Outcome::kDegraded;
        rec.latency_ticks = 0;
        ++degraded;
      }
    }
  }

  gt::serving::ServeReport rep;
  rep.arrived = planner.arrived();
  rep.admitted = planner.admitted();
  rep.shed_slo = planner.shed_slo();
  rep.shed_queue_full = planner.shed_queue_full();
  rep.completed = completed;
  rep.degraded = degraded;
  rep.batches = planned.size();
  rep.mean_batch_fill =
      planned.empty()
          ? 0.0
          : static_cast<double>(boarded) /
                static_cast<double>(planned.size() *
                                    config.batch.max_batch_requests);
  rep.records = recs;
  const Tick first_arrival =
      rep.records.empty() ? 0 : rep.records.front().arrival_tick;
  Tick last_event = lane_free;
  if (!rep.records.empty())
    last_event = std::max(last_event, rep.records.back().arrival_tick);
  rep.span_ticks = last_event > first_arrival ? last_event - first_arrival : 0;
  std::sort(latencies.begin(), latencies.end());
  auto nearest_rank = [&](double q) -> double {
    if (latencies.empty()) return 0.0;
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(latencies.size())));
    rank = std::clamp<std::size_t>(rank, 1, latencies.size());
    return static_cast<double>(latencies[rank - 1]);
  };
  rep.p50_latency_ticks = nearest_rank(0.50);
  rep.p95_latency_ticks = nearest_rank(0.95);
  rep.p99_latency_ticks = nearest_rank(0.99);
  rep.goodput_requests = goodput;
  rep.goodput_rps = rep.span_ticks > 0
                        ? static_cast<double>(goodput) * 1e6 /
                              static_cast<double>(rep.span_ticks)
                        : 0.0;
  return rep;
}

}  // namespace perfbench
