#include "frameworks/common.hpp"

#include <algorithm>

#include "datasets/embedding.hpp"
#include "fault/fault.hpp"
#include "obs/attrib/kernel_ledger.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace gt::frameworks::detail {

namespace {

const char* sim_category_of(const std::string& task_name) {
  if (task_name.empty()) return "preproc";
  switch (task_name[0]) {
    case 'S': return "sampling";
    case 'R': return "reindex";
    case 'K': return "lookup";
    case 'T': return "transfer";
    default:  return "preproc";
  }
}

/// Lay one batch's discrete-event schedule plus its GPU kernel profile on
/// the tracer's simulated timeline (pid kSimPid) — the Fig 20 view. The
/// sim does not record which core unit ran a task, so CPU tasks are
/// packed greedily into lanes: same makespan, readable rendering.
void emit_sim_timeline(const RunReport& report, const gpusim::Device& dev,
                       const pipeline::PreprocSchedule& schedule) {
  obs::Tracer& tracer = obs::Tracer::global();
  if (!tracer.enabled()) return;

  const double gpu_us = report.kernel_total_us;
  const double batch_span = schedule.makespan_us + gpu_us;
  // Small gap so consecutive batches stay visually distinct.
  const double base = tracer.advance_virtual(batch_span + 0.05 * batch_span);

  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < schedule.sim.tasks.size(); ++i) {
    const SimTaskResult& t = schedule.sim.tasks[i];
    if (t.resource == kNoResource || t.finish <= t.start) continue;
    order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return schedule.sim.tasks[a].start < schedule.sim.tasks[b].start;
  });

  std::vector<double> cpu_lane_free;  // lane index -> earliest free time
  for (std::size_t i : order) {
    const SimTaskResult& t = schedule.sim.tasks[i];
    obs::TraceEvent e;
    e.name = t.name;
    e.cat = sim_category_of(t.name);
    e.pid = obs::kSimPid;
    e.ts_us = base + t.start;
    e.dur_us = t.finish - t.start;
    if (e.cat == std::string_view("transfer")) {
      e.tid = obs::kSimTidPcie;
    } else {
      std::size_t lane = 0;
      while (lane < cpu_lane_free.size() &&
             cpu_lane_free[lane] > t.start + 1e-9)
        ++lane;
      if (lane == cpu_lane_free.size()) cpu_lane_free.push_back(0.0);
      cpu_lane_free[lane] = t.finish;
      e.tid = static_cast<std::uint32_t>(lane);
      tracer.set_sim_thread_name(e.tid,
                                 "cpu" + std::to_string(lane));
    }
    tracer.emit(std::move(e));
  }
  tracer.set_sim_thread_name(obs::kSimTidPcie, "pcie");
  tracer.set_sim_thread_name(obs::kSimTidGpu, "gpu");

  // GPU compute follows this batch's preprocessing (steady-state overlap
  // would slide it under the *next* batch's S/R/K/T).
  const double gpu0 = base + schedule.makespan_us;
  auto phase = [&](const char* name, double ts, double dur) {
    if (dur <= 0.0) return;
    obs::TraceEvent e;
    e.name = name;
    e.cat = name;
    e.pid = obs::kSimPid;
    e.tid = obs::kSimTidGpu;
    e.ts_us = ts;
    e.dur_us = dur;
    tracer.emit(std::move(e));
  };
  phase("FWP", gpu0, report.fwp_us);
  phase("BWP", gpu0 + report.fwp_us, report.bwp_us);
  // Per-kernel detail, nested under the phase spans.
  double t = gpu0;
  for (const auto& k : dev.profile()) {
    obs::TraceEvent e;
    e.name = k.name;
    e.cat = gpusim::to_string(k.category);
    e.pid = obs::kSimPid;
    e.tid = obs::kSimTidGpu;
    e.ts_us = t;
    e.dur_us = k.latency_us;
    e.args_json = obs::JsonWriter::members()
                      .member("flops", k.flops)
                      .member("global_bytes", k.global_bytes)
                      .take();
    tracer.emit(std::move(e));
    t += k.latency_us;
  }
}

}  // namespace

gpusim::DeviceConfig eval_device_config() {
  gpusim::DeviceConfig cfg;
  // 24 GB scaled by the dataset scale factor (~1/128): big enough for every
  // NAPA / Graph-approach workload, small enough that the DL-approach's
  // densified NGCF tensors on livejournal (the largest sampled subgraph x
  // the widest features) do not fit — reproducing the paper's OOM.
  cfg.memory_capacity_bytes = 96ull << 20;
  return cfg;
}

void preprocess_into(const Dataset& data, const BatchSpec& spec,
                     std::uint32_t num_layers,
                     const sampling::ReindexFormats& formats,
                     const pipeline::PlanOptions& plan,
                     pipeline::BatchContext& ctx) {
  pipeline::PreprocExecutor& exec = ctx.executor_for(
      data.csr, data.embeddings, data.spec.fanout, num_layers, spec.seed,
      formats);
  ctx.batch_vids() = exec.sampler().pick_batch(spec.batch_size,
                                               spec.batch_index);
  exec.run_serial_into(ctx.batch_vids(), ctx.table(), ctx.preproc(),
                       ctx.scratch());
  ctx.workload() = pipeline::workload_from(ctx.preproc().batch,
                                           data.spec.feature_dim);
  ctx.schedule() = pipeline::plan_preprocessing(ctx.workload(), plan);
}

void record_oom(RunReport& report, const gpusim::GpuOomError& e,
                const pipeline::BatchContext& ctx) {
  report.oom = true;
  report.oom_what = e.what();
  report.schedule = ctx.schedule();
  report.preproc_makespan_us = ctx.schedule().makespan_us;
  obs::metrics().counter("frameworks.oom_batches").add(1);
}

void open_session(DeviceSession& session, const pipeline::PreprocResult& pre,
                  const models::ModelParams& params,
                  const sampling::ReindexFormats& formats,
                  bool upload_input) {
  fault::check(fault::Site::kTransfer);
  GT_OBS_STAGE(span, kTransfer, "T.transfer", "transfer");
  gpusim::Device& dev = session.dev;
  dev.reset();
  session.input = gpusim::kInvalidBuffer;
  session.csr.clear();
  session.csc.clear();
  session.coo.clear();
  session.w.clear();
  session.b.clear();

  if (upload_input) {
    session.input = kernels::upload_matrix(dev, pre.embeddings, "input-table");
  }

  for (const auto& layer : pre.layers) {
    if (formats.csr)
      session.csr.push_back(kernels::upload_csr(dev, layer.csr, layer.n_dst));
    if (formats.csc)
      session.csc.push_back(kernels::upload_csc(dev, layer.csr, layer.n_dst));
    if (formats.coo)
      session.coo.push_back(kernels::upload_coo(dev, layer.coo, layer.n_dst));
  }
  for (std::uint32_t l = 0; l < params.num_layers(); ++l) {
    // Names built by append: GCC 12 flags `"w" + std::to_string(l)` with a
    // spurious -Wrestrict (its operator+ inserts at the front in place).
    std::string name = "w";
    name += std::to_string(l);
    session.w.push_back(kernels::upload_matrix(dev, params.w(l), name));
    name[0] = 'b';
    session.b.push_back(kernels::upload_matrix(dev, params.b(l), name));
  }
  dev.clear_profile();  // kernel profile measures FWP/BWP only
}

std::unique_ptr<DeviceSession> open_session(
    const pipeline::PreprocResult& pre, const models::ModelParams& params,
    const sampling::ReindexFormats& formats, bool upload_input) {
  auto session = std::make_unique<DeviceSession>(eval_device_config());
  open_session(*session, pre, params, formats, upload_input);
  return session;
}

float loss_head(gpusim::Device& dev, gpusim::BufferId logits,
                const pipeline::PreprocResult& data,
                std::uint32_t num_classes, std::uint64_t seed,
                gpusim::BufferId* dlogits, pipeline::BatchContext* ctx) {
  MatrixView host_logits = kernels::download_matrix(dev, logits,
                                                    ctx->arena());
  std::vector<std::uint32_t>& labels = ctx->labels();
  labels.clear();
  labels.reserve(host_logits.rows());
  for (std::size_t i = 0; i < host_logits.rows(); ++i)
    labels.push_back(
        synthetic_label(data.batch.vid_order[i], num_classes, seed));
  MatrixView grad = ctx->arena().alloc(host_logits.rows(), host_logits.cols());
  const float loss = softmax_cross_entropy_into(host_logits, labels, grad);
  *dlogits = kernels::upload_matrix(dev, grad, "dlogits");
  return loss;
}

void SgdStage::stage(gpusim::Device& dev, std::uint32_t layer,
                     gpusim::BufferId dw, gpusim::BufferId db,
                     pipeline::BatchContext& ctx) {
  pending_.push_back({layer, kernels::download_matrix(dev, dw, ctx.arena()),
                      kernels::download_matrix(dev, db, ctx.arena())});
}

void SgdStage::commit() {
  for (const Pending& p : pending_)
    params_->sgd_update(p.layer, p.dw, p.db, lr_);
  pending_.clear();
}

void run_layers(gpusim::Device& dev, gpusim::BufferId input,
                const models::GnnModelConfig& model, const BatchSpec& spec,
                pipeline::BatchContext& ctx, const LayerStep& step,
                SgdStage& sgd, RunReport& report,
                std::vector<LayerPass>& passes) {
  const std::uint32_t L = model.num_layers;
  // Run one pass of layer `l` and record its profile slice and modeled µs.
  auto pass = [&](std::uint32_t l, bool backward, auto&& run) {
    const double before = dev.profile_latency_us();
    const std::size_t lo = dev.profile().size();
    auto result = run();
    passes.push_back({{l, backward, lo, dev.profile().size()},
                      dev.profile_latency_us() - before});
    return result;
  };

  std::vector<gpusim::BufferId> outs;  // layer l's output feeds layer l+1
  gpusim::BufferId x = input;
  dev.set_phase(gpusim::KernelPhase::kForward);
  {
    GT_OBS_STAGE(fwp_span, kForward, "FWP", "FWP");
    for (std::uint32_t l = 0; l < L; ++l) {
      x = pass(l, /*backward=*/false, [&] { return step.forward(l, x); });
      outs.push_back(x);
    }
  }
  report.fwp_us = dev.profile_latency_us();
  if (spec.inference) return;

  // Loss + backward land past the fwp_us boundary and carry the backward
  // phase tag, matching bwp_us = total - fwp_us below.
  dev.set_phase(gpusim::KernelPhase::kBackward);
  gpusim::BufferId dy = gpusim::kInvalidBuffer;
  report.loss = loss_head(dev, x, ctx.preproc(), model.output_dim, spec.seed,
                          &dy, &ctx);
  {
    GT_OBS_STAGE(bwp_span, kBackward, "BWP", "BWP");
    for (std::uint32_t l = L; l-- > 0;) {
      const kernels::napa::DenseGrads grads = pass(l, /*backward=*/true, [&] {
        return step.backward(l, l == 0 ? input : outs[l - 1], dy,
                             /*want_dx=*/l > 0);
      });
      sgd.stage(dev, l, grads.dw, grads.db, ctx);
      dev.free(grads.dw);
      dev.free(grads.db);
      dev.free(dy);
      dy = grads.dx;  // invalid at layer 0, where the loop ends
      step.release(l);
    }
  }
  report.bwp_us = dev.profile_latency_us() - report.fwp_us;
}

void finalize_report(RunReport& report, const gpusim::Device& dev,
                     const pipeline::PreprocSchedule& schedule,
                     bool overlap_compute,
                     const pipeline::BatchContext* ctx,
                     const ShardedExecution* shard) {
  std::size_t cache_hit_bytes = 0;
  report.kernel_launches = dev.kernel_launch_count();
  for (const auto& k : dev.profile()) {
    report.kernel_total_us += k.latency_us;
    report.kernel_category_us[static_cast<std::size_t>(k.category)] +=
        k.latency_us;
    report.kernel_category_flops[static_cast<std::size_t>(k.category)] +=
        k.flops;
    report.flops += k.flops;
    report.global_bytes += k.global_bytes;
    report.cache_loaded_bytes += k.cache_loaded_bytes;
    report.atomic_ops += k.atomic_ops;
    cache_hit_bytes += k.cache_hit_bytes;
  }
  // Callers mark the FWP/BWP boundary as they run; a framework that did
  // not gets the whole profile attributed to the forward pass.
  if (report.fwp_us == 0.0 && report.bwp_us == 0.0)
    report.fwp_us = report.kernel_total_us;
  report.peak_memory_bytes = dev.memory_stats().peak_bytes;
  report.schedule = schedule;
  report.preproc_makespan_us = schedule.makespan_us;
  report.end_to_end_us = pipeline::end_to_end_us(
      schedule, report.kernel_total_us, overlap_compute);

  obs::MetricsRegistry& m = obs::metrics();
  if (shard && shard->options.devices > 1) {
    report.devices = shard->options.devices;
    report.shard = shard->options.strategy;
    report.group_makespan_us = shard->group.makespan_us;
    report.comm_us = shard->group.comm_us;
    report.comm_bytes = shard->group.comm_bytes;
    report.comm_steps = shard->group.comm_steps;
    report.collectives = shard->group.collectives;
    report.device_stats = shard->device_totals;
    report.device_busy_us = shard->group.device_busy_us;
    // The group timeline replaces the serial kernel time in the overlap:
    // preprocessing hides under the *merged* device/interconnect makespan.
    report.end_to_end_us = pipeline::end_to_end_us(
        schedule, report.group_makespan_us, overlap_compute);
    m.counter("comm.collectives").add(report.collectives);
    m.counter("comm.bytes").add(report.comm_bytes);
    m.counter("comm.steps").add(report.comm_steps);
    m.gauge("comm.us").set(report.comm_us);
    m.gauge("gpusim.devices").set(static_cast<double>(report.devices));
    m.gauge("gpusim.group.makespan_us").set(report.group_makespan_us);
    for (std::size_t d = 0; d < report.device_busy_us.size(); ++d) {
      const std::string prefix = "gpusim.device." + std::to_string(d);
      m.gauge(prefix + ".busy_us").set(report.device_busy_us[d]);
      m.gauge(prefix + ".share")
          .set(report.group_makespan_us > 0.0
                   ? report.device_busy_us[d] / report.group_makespan_us
                   : 0.0);
    }
    // Per-device embedding-cache attribution (sum-preserving split of the
    // batch's hit/miss/eviction volumes, DESIGN.md §15).
    for (std::size_t d = 0; d < shard->device_cache.size(); ++d) {
      const std::string prefix = "cache.device." + std::to_string(d);
      const CacheBatchVolumes& cv = shard->device_cache[d];
      m.counter(prefix + ".static_hits").add(cv.static_hits);
      m.counter(prefix + ".dynamic_hits").add(cv.dynamic_hits);
      m.counter(prefix + ".prefetch_hits").add(cv.prefetch_hits);
      m.counter(prefix + ".misses").add(cv.misses);
      m.counter(prefix + ".evictions").add(cv.evictions);
    }
  }
  m.counter("frameworks.batches").add(1);
  m.histogram("frameworks.e2e_us").observe(report.end_to_end_us);
  m.histogram("frameworks.preproc_us").observe(report.preproc_makespan_us);
  m.histogram("frameworks.kernel_us").observe(report.kernel_total_us);
  const std::size_t cache_total = cache_hit_bytes + report.cache_loaded_bytes;
  if (cache_total > 0)
    m.gauge("gpusim.sm_cache_hit_rate")
        .set(static_cast<double>(cache_hit_bytes) /
             static_cast<double>(cache_total));
#ifndef GT_OBS_DISABLE
  // Kernel-level attribution ledger: one record per reported batch, built
  // from the same profile and schedule the report itself is priced from —
  // the ledger's totals identity is exact because it shares every source
  // number with end_to_end_us above. Armed-off runs skip at the atomic.
  if (obs::attrib::KernelLedger::global().armed()) {
    std::vector<obs::attrib::KernelRecord> records;
    auto to_record = [](const gpusim::KernelStats& k, int device) {
      obs::attrib::KernelRecord r;
      r.name = k.name;
      r.category = gpusim::to_string(k.category);
      r.phase = gpusim::to_string(k.phase);
      r.blocks = k.blocks;
      r.latency_us = k.latency_us;
      r.flops = k.flops;
      r.global_bytes = k.global_bytes;
      r.device = device;
      return r;
    };
    if (shard && shard->options.devices > 1) {
      // Sharded batches record the attributed per-device profile (device
      // column set) instead of the canonical one, so the artifact shows
      // where each lane's time went.
      records.reserve(shard->kernels.size());
      for (const auto& dk : shard->kernels)
        records.push_back(to_record(dk.stats, static_cast<int>(dk.device)));
    } else {
      records.reserve(dev.profile().size());
      for (const auto& k : dev.profile())
        records.push_back(to_record(k, -1));
    }
    obs::attrib::KernelLedger::global().record_batch(batch_totals(report),
                                                     records);
  }
#endif
  if (ctx) {
    const Arena::Stats& a = ctx->arena().stats();
    report.arena_peak_bytes = a.used_bytes;  // monotone within a batch
    report.arena_allocations = ctx->arena_allocations_this_batch();
    report.arena_capacity_bytes = a.capacity_bytes;
    report.arena_growths = ctx->arena_growths_this_batch();
    m.gauge("batch_context.arena_peak_bytes")
        .set(static_cast<double>(a.peak_bytes));
    m.gauge("batch_context.arena_capacity_bytes")
        .set(static_cast<double>(a.capacity_bytes));
    m.counter("batch_context.arena_allocations")
        .add(report.arena_allocations);
    m.counter("batch_context.arena_growths").add(report.arena_growths);
  }
  emit_sim_timeline(report, dev, schedule);
}

}  // namespace gt::frameworks::detail
