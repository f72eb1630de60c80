#include "core/service.hpp"

#include <algorithm>
#include <exception>
#include <future>

#include "kernels/reference.hpp"
#include "obs/attrib/kernel_ledger.hpp"
#include "obs/live/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/executor.hpp"
#include "tensor/view.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"

namespace gt {

namespace {
// Correlation id of a batch: batch_index + 1, so cid 0 stays "none" and a
// grep for one cid returns the batch's whole causal chain (fault.inject,
// every retry, the degradation) across prepare threads and the execute
// thread.
std::uint64_t batch_cid(const frameworks::BatchSpec& spec) noexcept {
  return spec.batch_index + 1;
}
}  // namespace

GnnService::GnnService(Dataset dataset, models::GnnModelConfig model,
                       ServiceOptions options)
    : dataset_(std::move(dataset)),
      model_(std::move(model)),
      options_(options),
      params_(model_, dataset_.spec.feature_dim, options.seed),
      backend_(frameworks::make_framework(options.framework)) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.devices == 0) options_.devices = 1;
  if (options_.devices > 1) {
    frameworks::ShardOptions shard;
    shard.devices = options_.devices;
    shard.strategy = options_.shard == frameworks::ShardStrategy::kNone
                         ? frameworks::ShardStrategy::kRange
                         : options_.shard;
    if (!backend_->configure_sharding(shard))
      throw std::invalid_argument(
          "backend '" + options_.framework +
          "' does not support multi-device execution (--devices > 1 "
          "requires a GraphTensor variant)");
    options_.shard = shard.strategy;
    log_info("service: modeled multi-device execution (", options_.devices,
             " devices, ", frameworks::to_string(options_.shard),
             " sharding)");
  }
  if (options_.cache_budget_bytes > 0) {
    sampling::CacheConfig cache;
    cache.budget_bytes = options_.cache_budget_bytes;
    cache.policy = options_.cache_policy;
    cache.prefetch = options_.cache_prefetch;
    if (!backend_->configure_cache(cache))
      throw std::invalid_argument(
          "backend '" + options_.framework +
          "' does not support the embedding cache (--cache-budget "
          "requires a GraphTensor variant)");
    log_info("service: embedding cache armed (",
             options_.cache_budget_bytes, " bytes, ",
             sampling::to_string(options_.cache_policy), " policy",
             options_.cache_prefetch ? ", prefetch on" : "", ")");
  }
  if (options_.compute_threads != 0)
    set_compute_threads(options_.compute_threads);
  if (!options_.fault_spec.empty()) {
    fault_plan_ = std::make_unique<fault::FaultPlan>(
        fault::FaultPlan::parse(options_.fault_spec).entries());
    log_info("service: fault plan armed (", fault_plan_->entry_count(),
             " entr", fault_plan_->entry_count() == 1 ? "y" : "ies", ", ",
             options_.max_retries, " retries max): ", options_.fault_spec);
  }
  if (options_.telemetry.enabled()) {
    telemetry_ = std::make_unique<obs::live::LiveTelemetry>(
        options_.telemetry);
    telemetry_->start();
    obs::live::arm_crash_flush();
    log_info("service: live telemetry -> ", options_.telemetry.out_dir,
             " (interval ", options_.telemetry.interval, " batch",
             options_.telemetry.interval == 1 ? "" : "es",
             options_.telemetry.watchdog_stall_ms > 0 ? ", watchdog on"
                                                      : "",
             ")");
  }
#ifndef GT_OBS_DISABLE
  if (!options_.kernel_ledger_out.empty()) {
    obs::attrib::KernelLedger::global().arm(options_.kernel_ledger_out);
    ledger_armed_ = true;
    log_info("service: kernel ledger armed -> ", options_.kernel_ledger_out);
  }
#endif
  log_info("service: ", options_.framework, " on ", dataset_.spec.name,
           " (batch ", options_.batch_size, ", ", model_.num_layers,
           " layers, ", options_.workers, " worker context",
           options_.workers == 1 ? "" : "s", ", ", compute_threads(),
           " compute thread", compute_threads() == 1 ? "" : "s", ")");
}

GnnService::~GnnService() {
#ifndef GT_OBS_DISABLE
  // Mirror image of the ctor arming: the service that armed the
  // process-wide ledger writes the artifact at the end of its lifetime.
  // (Services that did not arm it leave a bench harness's ObsHook or
  // another service's accumulation alone.)
  if (ledger_armed_) {
    obs::attrib::KernelLedger& ledger = obs::attrib::KernelLedger::global();
    if (ledger.write_json_file()) {
      log_info("service: kernel ledger -> ", ledger.out_path(), " (",
               ledger.batch_count(), " batches, ",
               ledger.kernel_class_count(), " kernel classes)");
    } else if (!ledger.out_path().empty()) {
      log_warn("service: failed to write kernel ledger to ",
               ledger.out_path());
    }
    ledger.disarm();
  }
#endif
}

frameworks::BatchSpec GnnService::next_spec(bool inference,
                                            std::size_t batch_size) {
  frameworks::BatchSpec spec;
  spec.batch_size = batch_size;
  spec.batch_index = next_batch_++;
  spec.seed = options_.seed;
  spec.order = frameworks::OrderPolicy::kDynamic;
  spec.learning_rate = options_.learning_rate;
  spec.inference = inference;
  return spec;
}

std::uint64_t GnnService::backoff_for(std::uint32_t attempt) const noexcept {
  // detail::saturating_backoff fixes two wraparound bugs the old inline
  // computation had: `base << shift` is UB for shift >= 64 (and the old
  // shift >= 63 early-out returned the cap even when base == 0 or when
  // 2^shift * base was still representable below the cap), and a zero
  // base must stay zero for every attempt.
  return detail::saturating_backoff(options_.backoff_base_ticks, attempt,
                                    options_.backoff_max_ticks);
}

frameworks::RunReport GnnService::degraded_report(
    const frameworks::BatchSpec& spec, const std::string& reason,
    std::uint32_t retries, std::uint64_t backoff) {
  frameworks::RunReport r;
  r.framework = backend_->name();
  r.model = model_.name;
  r.dataset = dataset_.spec.name;
  r.failed = true;
  r.failed_reason = reason;
  r.retries = retries;
  r.backoff_ticks = backoff;
  obs::metrics().counter("service.degraded_batches").add(1);
  if (obs::live::EventLog::global().armed()) {
    obs::live::Event ev(obs::live::Severity::kError, "service.degraded");
    ev.msg(reason)
        .field("batch", spec.batch_index)
        .field("retries", static_cast<std::uint64_t>(retries))
        .field("backoff_ticks", backoff);
    obs::live::EventLog::global().emit(ev);
  }
  log_warn("service: batch ", spec.batch_index, " degraded after ", retries,
           " retr", retries == 1 ? "y" : "ies", ": ", reason);
  return r;
}

void GnnService::after_batch(const frameworks::BatchSpec& spec,
                             const frameworks::RunReport& report,
                             std::size_t queue_depth) {
  obs::live::CorrelationScope cscope(batch_cid(spec));
  obs::MetricsRegistry& m = obs::metrics();
  m.gauge("service.queue_depth").set(static_cast<double>(queue_depth));
  if (report.oom) {
    m.counter("service.oom_batches").add(1);
    if (obs::live::EventLog::global().armed()) {
      obs::live::Event ev(obs::live::Severity::kWarn, "service.oom");
      ev.msg(report.oom_what).field("batch", spec.batch_index);
      obs::live::EventLog::global().emit(ev);
    }
    log_warn("service: batch ", spec.batch_index,
             " aborted with OOM: ", report.oom_what);
  } else if (!report.failed) {
    obs::Histogram& e2e = m.histogram("service.batch_e2e_us");
    e2e.observe(report.end_to_end_us);
    m.gauge("service.p99_latency_us").set(e2e.p99());
    if (!spec.inference)
      m.histogram("service.batch_loss", {0.5, 1, 2, 3, 4, 5, 7, 10, 20})
          .observe(report.loss);
  }
  if (telemetry_) telemetry_->on_batch();
}

frameworks::RunReport GnnService::run_with_recovery(
    const frameworks::BatchSpec& spec, pipeline::BatchContext& ctx,
    std::uint32_t failed_attempts, std::string last_reason) {
  // Every attempt of this batch — and everything it causes (fault
  // injection, retries, the eventual degradation) — shares one cid.
  obs::live::CorrelationScope cscope(batch_cid(spec));
  std::uint64_t backoff = 0;
  while (true) {
    if (failed_attempts > options_.max_retries)
      return degraded_report(spec, last_reason, failed_attempts - 1, backoff);
    if (failed_attempts > 0) {
      // Virtual backoff: a deterministic tick counter stands in for the
      // wall-clock sleep a real service would take, keeping recovered
      // runs bit-identical and tests instant.
      const std::uint64_t ticks = backoff_for(failed_attempts);
      // Saturate, don't wrap: with backoff_max_ticks near UINT64_MAX a
      // couple of retries used to overflow these accumulators back to
      // small values, making reports claim almost no backoff was taken.
      backoff = detail::saturating_add(backoff, ticks);
      backoff_ticks_total_ = detail::saturating_add(backoff_ticks_total_, ticks);
      obs::metrics().counter("service.retries").add(1);
      obs::metrics().counter("service.backoff_ticks").add(ticks);
      GT_OBS_SCOPE_N(span, "service.retry", "service");
      span.arg("batch", static_cast<std::int64_t>(spec.batch_index));
      span.arg("attempt", static_cast<std::int64_t>(failed_attempts));
      span.arg("backoff_ticks", static_cast<std::int64_t>(ticks));
      if (obs::live::EventLog::global().armed()) {
        obs::live::Event ev(obs::live::Severity::kWarn, "service.retry");
        ev.msg(last_reason)
            .field("batch", spec.batch_index)
            .field("attempt", static_cast<std::uint64_t>(failed_attempts))
            .field("max_retries",
                   static_cast<std::uint64_t>(options_.max_retries))
            .field("backoff_ticks", ticks);
        obs::live::EventLog::global().emit(ev);
      }
      log_warn("service: batch ", spec.batch_index, " retry ",
               failed_attempts, "/", options_.max_retries, " after ", ticks,
               " backoff tick", ticks == 1 ? "" : "s", ": ", last_reason);
    }
    try {
      // run_batch begins with ctx.begin_batch(), which doubles as the
      // quarantine reset after a failed attempt left the context
      // mid-batch.
      fault::PlanScope scope(fault_plan_.get(), spec.batch_index);
      frameworks::RunReport r =
          backend_->run_batch(dataset_, model_, params_, spec, ctx);
      r.retries = failed_attempts;
      r.backoff_ticks = backoff;
      return r;
    } catch (const fault::InjectedFault& f) {
      if (f.kind() == fault::Kind::kAbort) {
        ctx.begin_batch();  // leave the context clean behind the unwind
        throw;
      }
      ++failed_attempts;
      last_reason = f.what();
    }
  }
}

frameworks::RunReport GnnService::train_batch() {
  return run_batches(1, /*inference=*/false, options_.batch_size).front();
}

void GnnService::run_ring(
    std::size_t workers,
    const std::function<std::optional<frameworks::BatchSpec>()>& source,
    const std::function<void(const frameworks::BatchSpec&,
                             frameworks::RunReport, std::size_t)>& sink,
    const std::function<void()>& on_unwind) {
  // Bounded in-flight ring, capacity = workers: batch i preprocesses in
  // context (i % workers) while earlier batches execute on this thread,
  // strictly in batch order. With workers > 1 the preparations run on the
  // pool; with one worker each runs inline on this thread, through the same
  // future. prepare_batch never touches model parameters, so neither
  // placement can change any report.
  while (contexts_.size() < workers)
    contexts_.push_back(std::make_unique<pipeline::BatchContext>());
  if (workers > 1 && (!pool_ || pool_->size() < workers)) {
    pool_ = nullptr;  // join the smaller pool before spawning its successor
    pool_ = std::make_unique<ThreadPool>(workers);
  }
  obs::metrics().gauge("service.workers").set(static_cast<double>(workers));

  struct Slot {
    frameworks::BatchSpec spec;
    std::future<void> prepared;
  };
  std::vector<Slot> ring(workers);

  // Exception safety (DESIGN.md §11): prepare tasks write through captured
  // pointers into `ring` and the worker contexts, so every launched task
  // must finish before ANY unwind of this frame — an abort the handler
  // below rethrows, one thrown by a retry inside that handler, or a
  // throwing source or sink. wait() (unlike get()) does not rethrow, so the
  // drain cannot throw. A throwing attempt leaves its context mid-batch, so
  // all of them reset and a caller that catches can keep serving. After
  // the caller's hook, telemetry flushes the post-mortem before the stack
  // above decides whether the process survives. Declared after `ring`, so
  // it runs before `ring` dies.
  auto unwind_cleanup = [&]() noexcept {
    for (Slot& slot : ring)
      if (slot.prepared.valid()) slot.prepared.wait();
    for (std::size_t w = 0; w < workers; ++w) contexts_[w]->begin_batch();
    if (on_unwind) on_unwind();
    if (telemetry_) telemetry_->crash_flush("service batch ring unwind");
  };
  struct UnwindGuard {
    decltype(unwind_cleanup)& cleanup;
    int base = std::uncaught_exceptions();
    ~UnwindGuard() {
      if (std::uncaught_exceptions() > base) cleanup();
    }
  } guard{unwind_cleanup};

  std::size_t launched = 0;
  auto launch_next = [&] {
    std::optional<frameworks::BatchSpec> next = source();
    if (!next) return false;
    Slot& slot = ring[launched % workers];
    pipeline::BatchContext* ctx = contexts_[launched % workers].get();
    ++launched;
    slot.spec = *next;
    std::packaged_task<void()> prepare(
        [this, ctx, spec = *next, plan = fault_plan_.get()] {
          obs::live::CorrelationScope cscope(batch_cid(spec));
          fault::PlanScope scope(plan, spec.batch_index);
          ctx->begin_batch();
          backend_->prepare_batch(dataset_, model_, spec, *ctx);
        });
    slot.prepared = prepare.get_future();
    if (workers > 1)
      pool_->submit([task = std::move(prepare)]() mutable { task(); });
    else
      prepare();  // a throw lands in the future, exactly as on the pool
    return true;
  };
  while (launched < workers && launch_next()) {
  }
  for (std::size_t i = 0; i < launched; ++i) {
    Slot& slot = ring[i % workers];
    const frameworks::BatchSpec spec = slot.spec;  // launch_next reuses slot
    pipeline::BatchContext& ctx = *contexts_[i % workers];
    frameworks::RunReport report;
    try {
      slot.prepared.get();  // rethrows preprocessing failures
      obs::live::CorrelationScope cscope(batch_cid(spec));
      fault::PlanScope scope(fault_plan_.get(), spec.batch_index);
      report = backend_->execute_prepared(dataset_, model_, params_, spec, ctx);
    } catch (const fault::InjectedFault& f) {
      if (f.kind() == fault::Kind::kAbort) throw;  // guard drains behind us
      // Transient: re-run the whole batch serially (the failed prepare or
      // execute burned attempt #0); the ring stays intact for the batches
      // behind it. If the re-run itself throws, the guard drains behind
      // that unwind too.
      report = run_with_recovery(spec, ctx, 1, f.what());
    }
    // Preparations still in flight behind this batch = the live queue
    // depth the paper's scheduling section cares about. The sink runs
    // before the next launch, so one worker keeps the serial order of work:
    // prepare, execute, sink.
    sink(spec, std::move(report), launched - i - 1);
    launch_next();
  }
}

std::vector<frameworks::RunReport> GnnService::run_batches(
    std::size_t batches, bool inference, std::size_t batch_size) {
  std::vector<frameworks::RunReport> reports;
  if (batches == 0) return reports;
  reports.reserve(batches);
  // Every index is reserved up front, so a call that aborts consumes the
  // same indices at every worker count and the call after it starts where
  // it would have without the abort.
  std::vector<frameworks::BatchSpec> specs;
  specs.reserve(batches);
  for (std::size_t i = 0; i < batches; ++i)
    specs.push_back(next_spec(inference, batch_size));
  std::size_t next = 0;
  run_ring(
      std::min(options_.workers, batches),
      [&]() -> std::optional<frameworks::BatchSpec> {
        if (next == specs.size()) return std::nullopt;
        return specs[next++];
      },
      [&](const frameworks::BatchSpec& spec, frameworks::RunReport report,
          std::size_t inflight) {
        reports.push_back(std::move(report));
        after_batch(spec, reports.back(), inflight);
      },
      {});
  return reports;
}

std::vector<frameworks::RunReport> GnnService::train_batches(
    std::size_t batches) {
  return run_batches(batches, /*inference=*/false, options_.batch_size);
}

EpochStats GnnService::train_epoch(std::size_t batches) {
  GT_OBS_SCOPE_N(epoch_span, "service.train_epoch", "service");
  epoch_span.arg("batches", static_cast<std::int64_t>(batches));
  obs::MetricsRegistry& m = obs::metrics();
  EpochStats stats;
  const std::vector<frameworks::RunReport> reports = train_batches(batches);
  bool first_ok = true;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const frameworks::RunReport& report = reports[i];
    ++stats.batches;
    stats.retries += report.retries;
    stats.backoff_ticks =
        detail::saturating_add(stats.backoff_ticks, report.backoff_ticks);
    if (report.failed) {
      ++stats.degraded_batches;
      continue;  // degraded_report already logged + counted
    }
    if (report.oom) {
      // after_batch already counted, logged and emitted the OOM event.
      ++stats.oom_batches;
      continue;
    }
    log_debug("service: batch ", i, " loss ", report.loss, " e2e ",
              report.end_to_end_us, "us");
    if (first_ok) {
      stats.first_loss = report.loss;
      first_ok = false;
    }
    stats.last_loss = report.loss;
    stats.mean_loss += report.loss;
    stats.mean_end_to_end_us += report.end_to_end_us;
    stats.mean_kernel_us += report.kernel_total_us;
    stats.arena_peak_bytes =
        std::max(stats.arena_peak_bytes, report.arena_peak_bytes);
    stats.arena_allocations += report.arena_allocations;
    stats.arena_growths += report.arena_growths;
  }
  const double n = static_cast<double>(stats.batches - stats.oom_batches -
                                       stats.degraded_batches);
  if (n > 0) {
    stats.mean_loss /= n;
    stats.mean_end_to_end_us /= n;
    stats.mean_kernel_us /= n;
  }
  m.counter("service.epochs").add(1);
  m.gauge("service.epoch_mean_loss").set(stats.mean_loss);
  m.gauge("service.epoch_mean_e2e_us").set(stats.mean_end_to_end_us);
  if (obs::live::EventLog::global().armed()) {
    obs::live::Event ev(obs::live::Severity::kInfo, "service.epoch");
    ev.field("batches", static_cast<std::uint64_t>(stats.batches))
        .field("degraded", static_cast<std::uint64_t>(stats.degraded_batches))
        .field("oom", static_cast<std::uint64_t>(stats.oom_batches))
        .field("retries", stats.retries)
        .field("mean_loss", stats.mean_loss);
    obs::live::EventLog::global().emit(ev);
  }
  return stats;
}

serving::ServeReport GnnService::serve(const serving::ServeConfig& config) {
  GT_OBS_SCOPE_N(serve_span, "service.serve", "service");
  serve_span.arg("requests", static_cast<std::int64_t>(config.requests));
  serving::ServePlanner::validate(config);  // fail fast, before warm-up work
  obs::MetricsRegistry& m = obs::metrics();

  // --- Warm-up: price at least one full-sized forward batch so the
  // admission estimate is the cost model's own e2e for this dataset /
  // model / device config (DESIGN.md §16). The estimate is frozen for the
  // whole run — that freeze is what lets the planner run ahead of
  // execution and keeps the admit/shed stream worker-invariant.
  double warm_us_sum = 0.0;
  std::size_t warm_ok = 0;
  for (const frameworks::RunReport& r :
       run_batches(std::max<std::size_t>(config.warmup_batches, 1),
                   /*inference=*/true,
                   config.batch.max_batch_requests *
                       static_cast<std::size_t>(config.vertices_per_request))) {
    if (r.ok()) {
      warm_us_sum += r.end_to_end_us;
      ++warm_ok;
    }
  }
  // A warm-up that degraded end to end (fault plan at batch 0) still needs
  // a usable estimate; 1ms is the deterministic fallback.
  const serving::Tick est =
      warm_ok > 0 ? std::max<serving::Tick>(
                        1, static_cast<serving::Tick>(
                               std::llround(warm_us_sum /
                                            static_cast<double>(warm_ok))))
                  : 1'000;
  m.gauge("serving.est_batch_ticks").set(static_cast<double>(est));

  serving::ServePlanner planner(config, est);
  log_info("service: serving ", config.requests, " requests (",
           serving::to_string(config.arrival.kind), " @ ",
           config.arrival.rate_rps, " rps, slo ", config.slo_ticks,
           " ticks, queue ", config.queue_depth, ", est ", est,
           " ticks/batch)");

  // Incremental counter publication: snapshots taken mid-serve see live
  // serving.* tallies that always satisfy the gt_top --check invariants.
  struct Published {
    std::uint64_t arrived = 0, admitted = 0, shed_slo = 0,
                  shed_queue_full = 0, shed_shutdown = 0, completed = 0,
                  degraded = 0, batches = 0;
  } pub;
  auto publish_planner_counters = [&]() noexcept {
    try {
      auto bump = [&m](const char* name, std::uint64_t now,
                       std::uint64_t& prev) {
        if (now > prev) {
          m.counter(name).add(now - prev);
          prev = now;
        }
      };
      bump("serving.requests.arrived", planner.arrived(), pub.arrived);
      bump("serving.requests.admitted", planner.admitted(), pub.admitted);
      bump("serving.requests.shed_slo", planner.shed_slo(), pub.shed_slo);
      bump("serving.requests.shed_queue_full", planner.shed_queue_full(),
           pub.shed_queue_full);
      bump("serving.requests.shed_shutdown", planner.shed_shutdown(),
           pub.shed_shutdown);
      bump("serving.requests.completed", planner.completed(), pub.completed);
      bump("serving.requests.degraded", planner.degraded(), pub.degraded);
      bump("serving.batches", planner.batches(), pub.batches);
      m.gauge("serving.queue.depth")
          .set(static_cast<double>(planner.queue_size()));
      m.gauge("serving.queue.peak")
          .set(static_cast<double>(planner.queue_peak()));
    } catch (...) {
      // Metric registration allocates; never let that turn an orderly
      // unwind into std::terminate.
    }
  };

  // The ring pulls each batch from the planner just before preparing it,
  // so at most `workers` planned batches are in flight at any time; the
  // sink prices each on the measured clock as it executes, in plan order.
  run_ring(
      options_.workers,
      [&]() -> std::optional<frameworks::BatchSpec> {
        const std::optional<serving::PlannedBatch> b = planner.next();
        if (!b) return std::nullopt;
        return next_spec(/*inference=*/true, b->total_vertices);
      },
      [&](const frameworks::BatchSpec& spec, frameworks::RunReport r,
          std::size_t) {
        const serving::PlannedBatch b =
            planner.complete(r.ok(), r.end_to_end_us);
        // Registered even for a degraded batch: an all-degraded serve dumps it.
        obs::Histogram& lat_hist = m.histogram("serving.request_latency_us");
        if (r.ok())
          for (const std::uint64_t id : b.request_ids)
            lat_hist.observe(
                static_cast<double>(planner.records()[id].latency_ticks));
        publish_planner_counters();
        after_batch(spec, r, planner.queue_size());
      },
      // Unwind, after the ring's drain and quarantine: queued requests and
      // the riders of every batch still in flight (the one that threw
      // included) drain to kShedShutdown, so the counters account for every
      // admitted request before telemetry flushes the post-mortem.
      [&]() noexcept {
        planner.shutdown();
        publish_planner_counters();
      });

  planner.finish();
  publish_planner_counters();
  serving::ServeReport rep = planner.report();
  m.gauge("serving.goodput_rps").set(rep.goodput_rps);
  m.gauge("serving.shed_rate").set(rep.shed_rate());
  m.gauge("serving.p99_latency_us").set(rep.p99_latency_ticks);
  if (obs::live::EventLog::global().armed()) {
    obs::live::Event ev(obs::live::Severity::kInfo, "serving.report");
    ev.field("arrived", rep.arrived)
        .field("completed", rep.completed)
        .field("shed", rep.shed())
        .field("degraded", rep.degraded)
        .field("batches", rep.batches)
        .field("p99_latency_ticks", rep.p99_latency_ticks)
        .field("goodput_rps", rep.goodput_rps);
    obs::live::EventLog::global().emit(ev);
  }
  if (telemetry_) telemetry_->on_batch();
  log_info("service: served ", rep.arrived, " requests: ", rep.completed,
           " completed, ", rep.shed(), " shed, ", rep.degraded,
           " degraded in ", rep.batches, " batches (p99 ",
           rep.p99_latency_ticks, " ticks, goodput ", rep.goodput_rps,
           " rps)");
  return rep;
}

double GnnService::evaluate(std::size_t batches) {
  GT_OBS_SCOPE_N(span, "service.evaluate", "service");
  span.arg("batches", static_cast<std::int64_t>(batches));
  const sampling::ReindexFormats formats{.coo = false, .csr = true,
                                         .csc = false};
  if (!eval_context_)
    eval_context_ = std::make_unique<pipeline::BatchContext>();
  pipeline::BatchContext& ctx = *eval_context_;
  pipeline::PreprocExecutor& exec =
      ctx.executor_for(dataset_.csr, dataset_.embeddings, dataset_.spec.fanout,
                       model_.num_layers, options_.seed, formats);
  std::size_t correct = 0, total = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    ctx.begin_batch();
    ctx.batch_vids() =
        exec.sampler().pick_batch(options_.batch_size, eval_batch_index(b));
    exec.run_serial_into(ctx.batch_vids(), ctx.table(), ctx.preproc(),
                         ctx.scratch());
    const pipeline::PreprocResult& pre = ctx.preproc();
    ConstMatrixView x{pre.embeddings};
    for (std::uint32_t l = 0; l < model_.num_layers; ++l) {
      x = kernels::ref::forward_layer(
          ctx.arena(), pre.layers[l].csr, x, params_.w(l), params_.b(l),
          pre.layers[l].n_dst, model_.f, model_.g, model_.relu_at(l));
    }
    for (std::size_t i = 0; i < x.rows(); ++i) {
      std::uint32_t best = 0;
      for (std::uint32_t c = 1; c < x.cols(); ++c)
        if (x.at(i, c) > x.at(i, best)) best = c;
      const std::uint32_t label = synthetic_label(
          pre.batch.vid_order[i], model_.output_dim, options_.seed);
      correct += best == label;
      ++total;
    }
  }
  return total > 0 ? static_cast<double>(correct) / total : 0.0;
}

}  // namespace gt
