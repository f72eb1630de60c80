// Command-line GNN training service: pick any catalog dataset, model, and
// framework backend and watch the per-batch reports — the "adopt this
// library" entry point.
//
//   $ ./examples/service_cli [dataset] [model] [framework] [batches]
//   $ ./examples/service_cli wiki-talk NGCF Prepro-GT 12
//
// Flags are parsed by one table (util/options.hpp): `--flag=value` and
// `--flag value` both work, numbers must parse whole and lie in the range
// given below, and an unknown flag, a surplus positional, a bad value or a
// flag whose requirement is unmet exits 2 with one message. A GT_* name in
// parentheses is read only when its flag is absent; the library itself
// reads none of them.
//
// Concurrent serving:
//   --workers=N  (1..256) drains the batch queue with N worker
//                contexts: preprocessing of up to N batches overlaps on a
//                thread pool while training executes strictly in batch
//                order. Reports are bit-identical to --workers=1.
//   --compute-threads=N (1..64) host threads for the compute
//                engine (default: GT_COMPUTE_THREADS, which the engine
//                reads, or the hardware): simulated-device kernels run
//                their per-SM block sequences on N pool workers and the
//                dense tensor ops parallelize over row tiles. Reports
//                (simulated times, losses, gradients) are bit-identical
//                for every N — only host wall-clock changes.
//   --batches=M  (1..1000000) explicit batch count (wins over the
//                positional form).
//
// Modeled multi-device execution (DESIGN.md §14):
//   --devices=N  (1..64) decompose each batch across N simulated devices
//                behind a modeled ring interconnect. Trained parameters and
//                losses stay bit-identical to --devices=1; the timeline
//                becomes a per-device makespan merge and the report gains
//                comm.* collective costs. Requires a GraphTensor backend.
//   --shard=S    decomposition strategy: "range" (destination-vertex range
//                sharding with halo all-gathers) or "tp" (NeutronTP-style
//                tensor parallelism over the feature dimension, one
//                all-reduce per layer boundary). Only valid together with
//                --devices > 1; defaults to range.
//
// Embedding cache hierarchy (DESIGN.md §15):
//   --cache-budget=B   device bytes for the embedding cache (suffixes
//                K/M/G, e.g. --cache-budget=8M). 0 (default) = no cache.
//                Re-prices the K/T preprocessing stages only: trained
//                parameters and losses are bit-identical to a cache-off
//                run for every policy. Requires a GraphTensor backend.
//   --cache-policy=P   static (degree-pinned hub vertices, the default),
//                lru / lfu (fully dynamic, batch-index virtual-time
//                eviction), or tiered (budget split static + LRU).
//   --prefetch   sampler-lookahead warm-up of the dynamic tier: the
//                prepared next batch's vid_order is fetched under the
//                current batch's compute window and priced as overlapped
//                transfer. Needs a dynamic tier (lru/lfu/tiered).
//
// Online request serving (DESIGN.md §16):
//   --serve      switch from epoch training to the online serving front
//                end: a seeded open-loop arrival process feeds a bounded
//                request queue, SLO-aware admission sheds predicted
//                deadline misses at the door, and the dynamic batcher
//                coalesces admitted requests into forward-only batches on
//                the same worker-context ring. Prints the outcome table
//                plus p50/p95/p99 request latency, goodput, and shed rate.
//   --arrival=A  poisson (default) | bursty | diurnal arrival process.
//   --rate=R     mean arrival rate in requests per virtual second (>0).
//   --slo-ticks=T  deadline in virtual ticks (1 tick = 1 simulated us);
//                0 (default) disables shedding.
//   --queue-depth=N  bounded request-queue capacity (default 64).
//   --requests=N     arrivals to generate (default 64).
//   --max-batch=N    requests coalesced per serving batch (default 8).
//   --max-wait-ticks=T  oldest-request wait that forces a batch closed
//                (default 2000).
//   --verts-per-request=N  dst vertices each request asks for (1..65535,
//                default 32).
//   All serving flags require --serve; the replayed decision stream is
//   bit-identical across --workers values, including under --fault-spec.
//
// Fault injection / chaos serving (DESIGN.md §11):
//   --fault-spec=SPEC (GT_FAULT_SPEC) arms a gt::fault schedule, e.g.
//                --fault-spec="gpusim.alloc@batch=3;preproc.sample@batch=7"
//                Transient faults are retried with virtual backoff; a
//                batch past the retry budget shows as "degraded" in the
//                table and the epoch keeps going. An armed run prints
//                "faults injected: N"; a spec that never fired also
//                warns on stderr. A kind=abort fault exits 3 with an
//                "aborted:" message after the service unwound (serving
//                sheds its queued and in-flight requests) and the
//                artifacts were written.
//   --max-retries=N retry budget per batch (default 3).
//   Chaos example (one command line):
//     ./examples/service_cli products GCN Prepro-GT 8 --workers=4
//         --fault-spec="preproc.sample@batch=2;gpusim.kernel@batch=5:always"
//
// Observability flags (anywhere on the command line); each flag also
// honors its GT_* environment-variable equivalent, for parity with the
// bench binaries' env-driven hook (the flag wins when both are set). One
// obs::ObsHook writes the trace, metrics and bench report at exit:
//   --trace-out=trace.json     (GT_TRACE_OUT) Chrome trace-event JSON of
//                              the run: the simulated S/R/K/T + FWP/BWP
//                              batch timeline (load in chrome://tracing
//                              or Perfetto) plus wall-clock host spans.
//   --metrics-out=metrics.json (GT_METRICS_OUT) Dump of the gt::obs
//                              metrics registry (hash contention, DKP
//                              decisions, kernel-category timings, PCIe
//                              bytes, per-epoch loss, ...).
//   --bench-out=bench.json     (GT_BENCH_OUT) Structured bench report:
//                              per-run latency/loss rows and run
//                              metadata (see obs/report.hpp); the stage
//                              breakdown is --kernel-ledger-out's.
//   --kernel-ledger-out=kernels.json (GT_KERNEL_LEDGER_OUT) Kernel-level
//                              attribution ledger (DESIGN.md §13):
//                              per-kernel-class latency sums, exact
//                              stage-identity totals, and the DKP
//                              cost-model prediction join. Feed two of
//                              these to tools/gt_explain to attribute an
//                              end-to-end latency delta.
//
// Live telemetry (DESIGN.md §12); tail with tools/gt_top:
//   --telemetry-out=DIR        (GT_TELEMETRY_OUT) arm the live stack:
//                              rotating snapshot-<k>.json + latest.json
//                              time-series snapshots, events.jsonl
//                              structured event log (severity, monotonic
//                              ts, thread id, correlation id — one cid per
//                              batch ties fault.inject -> service.retry ->
//                              service.degraded together), per-worker
//                              stage profiler, crash-safe flush.
//   --telemetry-interval=N     (GT_TELEMETRY_INTERVAL) batches between
//                              snapshots (default 1).
//   --watchdog-stall-ms=M      (GT_TELEMETRY_WATCHDOG_MS) declare a stall
//                              after M ms without batch progress
//                              (watchdog.stall/.recovered events; 0 = off).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/graphtensor.hpp"
#include "obs/metrics.hpp"
#include "obs/obs_hook.hpp"
#include "obs/report.hpp"
#include "sampling/cache_hierarchy.hpp"
#include "util/options.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

gt::models::GnnModelConfig model_by_name(const std::string& name,
                                         const gt::DatasetSpec& spec) {
  if (name == "GCN")
    return gt::models::gcn(spec.hidden_dim, spec.output_dim);
  if (name == "NGCF")
    return gt::models::ngcf(spec.hidden_dim, spec.output_dim);
  if (name == "GraphSAGE")
    return gt::models::graphsage_sum(spec.hidden_dim, spec.output_dim);
  if (name == "GAT")
    return gt::models::gat_like(spec.hidden_dim, spec.output_dim);
  std::fprintf(stderr, "unknown model '%s' (GCN|NGCF|GraphSAGE|GAT)\n",
               name.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string dataset_name = "products", model_name = "GCN";
  std::string trace_out, metrics_out, bench_out;
  std::size_t batches = 8;
  bool serve_mode = false;
  gt::ServiceOptions options;
  options.learning_rate = 0.1f;
  gt::serving::ServeConfig serve_config;
  serve_config.arrival.seed = 42;  // matches the dataset seed below
  // Requirements: a flag whose precondition is missing would silently do
  // nothing (shard a single device, cache without a budget, serving flags
  // in training mode), so the combination is rejected as a typo.
  const std::string needs_budget =
      "a positive --cache-budget (the embedding cache is off without a "
      "byte budget)";
  const auto cached = [&] { return options.cache_budget_bytes > 0; };
  const std::string needs_serve =
      "--serve (online serving flags do nothing in training mode)";
  const auto serving = [&] { return serve_mode; };
  try {
    gt::parse_options(
        {gt::text("dataset", &dataset_name),
         gt::text("model", &model_name),
         gt::text("framework", &options.framework),
         gt::count("batches", &batches, "batch count", 1, 1'000'000),
         gt::count("--batches", &batches, "batch count", 1, 1'000'000),
         gt::count("--workers", &options.workers, "worker count", 1, 256),
         gt::count("--compute-threads", &options.compute_threads,
                   "compute thread count", 1, gt::kMaxComputeThreads),
         gt::count("--devices", &options.devices, "device count", 1, 64),
         gt::named("--shard", &options.shard,
                   gt::frameworks::parse_shard_strategy)
             .needs("--devices > 1 (sharding a single device is a no-op; "
                    "pass --devices=N to enable it)",
                    [&] { return options.devices > 1; }),
         gt::bytes("--cache-budget", &options.cache_budget_bytes),
         gt::named("--cache-policy", &options.cache_policy,
                   gt::sampling::parse_cache_policy)
             .needs(needs_budget, cached),
         gt::flag("--prefetch", &options.cache_prefetch)
             .needs(needs_budget, cached),
         gt::text("--fault-spec", &options.fault_spec).env("GT_FAULT_SPEC"),
         gt::count("--max-retries", &options.max_retries, "retry budget", 0),
         gt::text("--trace-out", &trace_out).env("GT_TRACE_OUT"),
         gt::text("--metrics-out", &metrics_out).env("GT_METRICS_OUT"),
         gt::text("--bench-out", &bench_out).env("GT_BENCH_OUT"),
         gt::text("--kernel-ledger-out", &options.kernel_ledger_out)
             .env("GT_KERNEL_LEDGER_OUT"),
         gt::text("--telemetry-out", &options.telemetry.out_dir)
             .env("GT_TELEMETRY_OUT"),
         gt::count("--telemetry-interval", &options.telemetry.interval,
                   "snapshot interval", 1)
             .env("GT_TELEMETRY_INTERVAL"),
         gt::count("--watchdog-stall-ms", &options.telemetry.watchdog_stall_ms,
                   "stall timeout", 0)
             .env("GT_TELEMETRY_WATCHDOG_MS"),
         gt::flag("--serve", &serve_mode),
         gt::named("--arrival", &serve_config.arrival.kind,
                   gt::serving::parse_arrival_kind)
             .needs(needs_serve, serving),
         gt::real("--rate", &serve_config.arrival.rate_rps,
                  "arrival rate in requests per virtual second")
             .needs(needs_serve, serving),
         gt::count("--slo-ticks", &serve_config.slo_ticks, "deadline", 0)
             .needs(needs_serve, serving),
         gt::count("--queue-depth", &serve_config.queue_depth, "capacity", 1)
             .needs(needs_serve, serving),
         gt::count("--requests", &serve_config.requests, "request count", 1)
             .needs(needs_serve, serving),
         gt::count("--max-batch", &serve_config.batch.max_batch_requests,
                   "batch size", 1)
             .needs(needs_serve, serving),
         gt::count("--max-wait-ticks", &serve_config.batch.max_wait_ticks,
                   "wait", 0)
             .needs(needs_serve, serving),
         gt::count("--verts-per-request", &serve_config.vertices_per_request,
                   "vertex count", 1, 0xffff)
             .needs(needs_serve, serving)},
        {argv + 1, argv + argc});
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  const std::string& framework = options.framework;
  const std::size_t workers = options.workers;

  // An unknown dataset or framework name makes the catalog or the
  // framework factory throw std::out_of_range: report it like a bad flag.
  const gt::DatasetSpec* spec = nullptr;
  try {
    spec = &gt::find_spec(dataset_name);
  } catch (const std::out_of_range& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  // Declared before the hook so the hook writes its artifacts first and
  // the service (which owns the kernel ledger it armed) tears down last.
  std::unique_ptr<gt::GnnService> service_ptr;
  gt::obs::ObsHook obs_hook(trace_out, metrics_out, bench_out, "");
  gt::Dataset data = gt::generate(*spec, 42);
  gt::models::GnnModelConfig model = model_by_name(model_name, data.spec);
  try {
    service_ptr = std::make_unique<gt::GnnService>(std::move(data), model,
                                                   options);
  } catch (const std::logic_error& e) {  // invalid_argument or out_of_range
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  gt::GnnService& service = *service_ptr;
  // A spec whose entries never fire leaves a run identical to one without
  // it, so an armed run states how many faults it injected.
  const auto report_faults = [&] {
    const gt::fault::FaultPlan* plan = service.fault_plan();
    if (plan == nullptr) return;
    std::printf("faults injected: %llu\n",
                static_cast<unsigned long long>(plan->injected()));
    if (plan->injected() == 0)
      std::fprintf(stderr,
                   "warning: fault spec '%s' injected no fault: no entry "
                   "matched a site this run reached\n",
                   options.fault_spec.c_str());
  };
  // A kind=abort fault is not retried: it unwinds the service, whose ring
  // drains and sheds before the exception reaches here.
  const auto aborted = [&](const gt::fault::InjectedFault& e) {
    report_faults();
    std::fprintf(stderr, "aborted: %s\n", e.what());
    return 3;
  };
  // Bench-report rows, recorded only when the hook will write the report.
  gt::obs::BenchReporter& report = gt::obs::BenchReporter::global();
  report.set_binary("service_cli");
  const auto add_row = [&](const char* metric, const char* unit,
                           double measured) {
    gt::obs::BenchRow row;
    row.metric = metric;
    row.dataset = dataset_name;
    row.framework = framework;
    row.unit = unit;
    row.measured = measured;
    report.add_row(std::move(row));
  };

  if (serve_mode) {
    std::printf(
        "serving %s on %s via %s: %zu requests, %s arrivals @ %.1f rps, "
        "slo %llu ticks, queue %zu, batch <= %zu, %zu worker%s\n\n",
        model_name.c_str(), dataset_name.c_str(), framework.c_str(),
        serve_config.requests,
        gt::serving::to_string(serve_config.arrival.kind),
        serve_config.arrival.rate_rps,
        static_cast<unsigned long long>(serve_config.slo_ticks),
        serve_config.queue_depth, serve_config.batch.max_batch_requests,
        workers, workers == 1 ? "" : "s");
    gt::serving::ServeReport rep;
    try {
      rep = service.serve(serve_config);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    } catch (const gt::fault::InjectedFault& e) {
      return aborted(e);
    }
    gt::Table table({"outcome", "requests", "share"});
    const auto share = [&](std::uint64_t n) {
      return rep.arrived == 0
                 ? std::string("-")
                 : gt::Table::fmt(100.0 * static_cast<double>(n) /
                                      static_cast<double>(rep.arrived),
                                  1) + "%";
    };
    table.add_row({"completed", std::to_string(rep.completed),
                   share(rep.completed)});
    table.add_row({"shed (slo)", std::to_string(rep.shed_slo),
                   share(rep.shed_slo)});
    table.add_row({"shed (queue full)", std::to_string(rep.shed_queue_full),
                   share(rep.shed_queue_full)});
    table.add_row({"degraded", std::to_string(rep.degraded),
                   share(rep.degraded)});
    table.print();
    std::printf(
        "\nrequest latency p50/p95/p99: %.0f / %.0f / %.0f ticks\n"
        "goodput: %.1f rps (%llu of %llu requests within SLO)\n"
        "shed rate: %.1f%%  |  %llu batches, mean fill %.2f, span %llu "
        "ticks\n",
        rep.p50_latency_ticks, rep.p95_latency_ticks, rep.p99_latency_ticks,
        rep.goodput_rps,
        static_cast<unsigned long long>(rep.goodput_requests),
        static_cast<unsigned long long>(rep.arrived),
        100.0 * rep.shed_rate(),
        static_cast<unsigned long long>(rep.batches), rep.mean_batch_fill,
        static_cast<unsigned long long>(rep.span_ticks));
    report_faults();
    if (service.telemetry() != nullptr)
      std::printf("telemetry in %s (snapshots + events.jsonl; tail with "
                  "tools/gt_top)\n",
                  service.telemetry()->options().out_dir.c_str());
    if (!bench_out.empty()) {
      report.set_iterations(static_cast<int>(rep.batches));
      report.set_context("service_cli --serve",
                         model_name + " on " + dataset_name + " via " +
                             framework + ", " +
                             gt::serving::to_string(
                                 serve_config.arrival.kind) +
                             " arrivals");
      add_row("p50 request latency", "ticks", rep.p50_latency_ticks);
      add_row("p95 request latency", "ticks", rep.p95_latency_ticks);
      add_row("p99 request latency", "ticks", rep.p99_latency_ticks);
      add_row("goodput", "rps", rep.goodput_rps);
      add_row("shed rate", "fraction", rep.shed_rate());
      add_row("requests completed", "count",
              static_cast<double>(rep.completed));
      add_row("requests shed", "count", static_cast<double>(rep.shed()));
      add_row("requests degraded", "count",
              static_cast<double>(rep.degraded));
      add_row("serving batches", "count", static_cast<double>(rep.batches));
      add_row("mean batch fill", "fraction", rep.mean_batch_fill);
    }
    return 0;
  }

  std::printf("training %s on %s via %s (%zu batches of %zu, %zu worker%s)\n",
              model_name.c_str(), dataset_name.c_str(), framework.c_str(),
              batches, options.batch_size, workers, workers == 1 ? "" : "s");
  if (options.devices > 1)
    std::printf("modeled multi-device: %zu devices, %s sharding\n",
                options.devices,
                gt::frameworks::to_string(
                    options.shard == gt::frameworks::ShardStrategy::kNone
                        ? gt::frameworks::ShardStrategy::kRange
                        : options.shard));
  if (options.cache_budget_bytes > 0)
    std::printf("embedding cache: %zu bytes, %s policy%s\n",
                options.cache_budget_bytes,
                gt::sampling::to_string(options.cache_policy),
                options.cache_prefetch ? ", prefetch on" : "");
  std::printf("\n");

  gt::Table table({"batch", "loss", "kernel us", "preproc us", "e2e us",
                   "peak mem", "arena peak", "placement L0"});
  std::vector<double> e2e_us, losses, arena_peaks, arena_allocs;
  std::vector<double> host_prep_us, host_exec_us;
  std::vector<double> group_makespans, comm_us;
  double comm_bytes = 0.0, comm_steps = 0.0, collectives = 0.0;
  std::vector<gt::frameworks::RunReport> reports;
  try {
    reports = service.train_batches(batches);
  } catch (const gt::fault::InjectedFault& e) {
    return aborted(e);
  }
  std::size_t degraded_batches = 0;
  std::uint64_t recovery_retries = 0;
  for (std::size_t b = 0; b < reports.size(); ++b) {
    const gt::frameworks::RunReport& r = reports[b];
    recovery_retries += r.retries;
    if (r.failed) {
      ++degraded_batches;
      table.add_row({std::to_string(b), "degraded: " + r.failed_reason});
      continue;  // the service already moved on; so does the table
    }
    if (r.oom) {
      table.add_row({std::to_string(b), "OOM: " + r.oom_what});
      break;
    }
    e2e_us.push_back(r.end_to_end_us);
    losses.push_back(r.loss);
    arena_peaks.push_back(static_cast<double>(r.arena_peak_bytes));
    arena_allocs.push_back(static_cast<double>(r.arena_allocations));
    host_prep_us.push_back(r.host_prepare_us);
    host_exec_us.push_back(r.host_execute_us);
    if (r.devices > 1) {
      group_makespans.push_back(r.group_makespan_us);
      comm_us.push_back(r.comm_us);
      comm_bytes += static_cast<double>(r.comm_bytes);
      comm_steps += static_cast<double>(r.comm_steps);
      collectives += static_cast<double>(r.collectives);
    }
    table.add_row({std::to_string(b), gt::Table::fmt(r.loss, 4),
                   gt::Table::fmt(r.kernel_total_us, 1),
                   gt::Table::fmt(r.preproc_makespan_us, 1),
                   gt::Table::fmt(r.end_to_end_us, 1),
                   gt::Table::fmt_bytes(r.peak_memory_bytes),
                   gt::Table::fmt_bytes(r.arena_peak_bytes),
                   r.layer_comb_first_fwd[0] ? "comb-first" : "agg-first"});
  }
  table.print();
  const double accuracy = service.evaluate(2);
  std::printf("\nheld-out accuracy: %.1f%% (chance %.1f%%)\n",
              100.0 * accuracy, 100.0 / model.output_dim);
  report_faults();

  if (service.telemetry() != nullptr)
    std::printf("telemetry in %s (snapshots + events.jsonl; tail with "
                "tools/gt_top)\n",
                service.telemetry()->options().out_dir.c_str());

  if (!bench_out.empty()) {
    report.set_iterations(static_cast<int>(batches));
    report.set_context("service_cli", model_name + " on " + dataset_name +
                                          " via " + framework);
    add_row("mean batch e2e", "us", gt::mean(e2e_us));
    add_row("final batch loss", "loss", losses.empty() ? 0.0 : losses.back());
    add_row("held-out accuracy", "fraction", accuracy);
    add_row("arena peak", "bytes",
            arena_peaks.empty()
                ? 0.0
                : *std::max_element(arena_peaks.begin(), arena_peaks.end()));
    add_row("arena allocations per batch", "count", gt::mean(arena_allocs));
    // Real host time (steady_clock), not simulated: varies with machine
    // load and --compute-threads, unlike every row above.
    add_row("mean host prepare wall", "us", gt::mean(host_prep_us));
    add_row("mean host execute wall", "us", gt::mean(host_exec_us));
    add_row("degraded batches", "count",
            static_cast<double>(degraded_batches));
    add_row("recovery retries", "count",
            static_cast<double>(recovery_retries));
    if (!group_makespans.empty()) {
      // Multi-device rows: the modeled group timeline and the collective
      // traffic it absorbed (DESIGN.md §14).
      add_row("devices", "count", static_cast<double>(options.devices));
      add_row("mean group makespan", "us", gt::mean(group_makespans));
      add_row("mean collective comm", "us", gt::mean(comm_us));
      add_row("collective wire bytes", "bytes", comm_bytes);
      add_row("collective steps", "count", comm_steps);
      add_row("collectives priced", "count", collectives);
    }
    if (options.cache_budget_bytes > 0) {
      // Embedding cache rows (DESIGN.md §15), read back from the
      // committed per-tier counters in the metrics registry.
      gt::obs::MetricsRegistry& m = gt::obs::metrics();
      const auto count = [&m](const char* name) {
        return static_cast<double>(m.counter(name).value());
      };
      add_row("cache hit rate", "fraction",
              m.gauge("embedding_cache.hit_rate").value());
      add_row("cache static hits", "count", count("cache.static.hits"));
      add_row("cache dynamic hits", "count", count("cache.dynamic.hits"));
      add_row("cache prefetch hits", "count", count("cache.prefetch.hits"));
      add_row("cache misses", "count", count("cache.misses"));
      add_row("cache evictions", "count", count("cache.evictions"));
      add_row("cache ring chunks", "count", count("cache.ring.chunks"));
    }
  }
  return 0;
}
