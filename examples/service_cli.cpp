// Command-line GNN training service: pick any catalog dataset, model, and
// framework backend and watch the per-batch reports — the "adopt this
// library" entry point.
//
//   $ ./examples/service_cli [dataset] [model] [framework] [batches]
//   $ ./examples/service_cli wiki-talk NGCF Prepro-GT 12
//
// Concurrent serving:
//   --workers=N  (or --workers N) drains the batch queue with N worker
//                contexts: preprocessing of up to N batches overlaps on a
//                thread pool while training executes strictly in batch
//                order. Reports are bit-identical to --workers=1.
//   --compute-threads=N (GT_COMPUTE_THREADS) host threads for the compute
//                engine: simulated-device kernels run their per-SM block
//                sequences on N pool workers and the dense tensor ops
//                parallelize over row tiles. Reports (simulated times,
//                losses, gradients) are bit-identical for every N — only
//                host wall-clock changes.
//   --batches=M  explicit batch count (wins over the positional form).
//
// Modeled multi-device execution (DESIGN.md §14):
//   --devices=N  decompose each batch across N simulated devices behind a
//                modeled ring interconnect. Trained parameters and losses
//                stay bit-identical to --devices=1; the timeline becomes a
//                per-device makespan merge and the report gains comm.*
//                collective costs. Requires a GraphTensor backend.
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
//   --verts-per-request=N  dst vertices each request asks for (default 32).
//   All serving flags require --serve; the replayed decision stream is
//   bit-identical across --workers values, including under --fault-spec.
//
// Fault injection / chaos serving (DESIGN.md §11):
//   --fault-spec=SPEC (GT_FAULT_SPEC) arms a gt::fault schedule, e.g.
//                --fault-spec="gpusim.alloc@batch=3;preproc.sample@batch=7"
//                Transient faults are retried with virtual backoff; a
//                batch past the retry budget shows as "degraded" in the
//                table and the epoch keeps going.
//   --max-retries=N retry budget per batch (default 3).
//   Chaos example (one command line):
//     ./examples/service_cli products GCN Prepro-GT 8 --workers=4
//         --fault-spec="preproc.sample@batch=2;gpusim.kernel@batch=5:always"
//
// Observability flags (anywhere on the command line); each flag also
// honors its GT_* environment-variable equivalent, for parity with the
// bench binaries' env-driven hook (the flag wins when both are set):
//   --trace-out=trace.json     (GT_TRACE_OUT) Chrome trace-event JSON of
//                              the run: the simulated S/R/K/T + FWP/BWP
//                              batch timeline (load in chrome://tracing
//                              or Perfetto) plus wall-clock host spans.
//   --metrics-out=metrics.json (GT_METRICS_OUT) Dump of the gt::obs
//                              metrics registry (hash contention, DKP
//                              decisions, kernel-category timings, PCIe
//                              bytes, per-epoch loss, ...).
//   --bench-out=bench.json     (GT_BENCH_OUT) Structured bench report:
//                              per-run latency/loss rows plus the
//                              trace-derived critical-path / stage-share /
//                              overlap analysis (see obs/report.hpp).
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
#include "sampling/cache_hierarchy.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
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

/// Flag value, falling back to the GT_* environment equivalent.
std::string out_path(const std::string& flag_value, const char* env_name) {
  if (!flag_value.empty()) return flag_value;
  if (const char* env = std::getenv(env_name)) return env;
  return {};
}

/// Parse a byte count with an optional K/M/G suffix ("8M", "512k", "1G").
/// Returns false on anything else (including negatives).
bool parse_byte_size(const std::string& text, std::size_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || value < 0.0) return false;
  double scale = 1.0;
  if (*end != '\0') {
    switch (*end) {
      case 'k': case 'K': scale = 1024.0; break;
      case 'm': case 'M': scale = 1024.0 * 1024.0; break;
      case 'g': case 'G': scale = 1024.0 * 1024.0 * 1024.0; break;
      default: return false;
    }
    ++end;
    if (*end == 'B' || *end == 'b') ++end;
    if (*end != '\0') return false;
  }
  *out = static_cast<std::size_t>(value * scale);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_flag, metrics_flag, bench_flag, ledger_flag;
  std::string fault_spec;  // empty = GT_FAULT_SPEC / no faults
  std::string telemetry_flag;  // empty = GT_TELEMETRY_OUT / telemetry off
  std::vector<std::string> positional;
  int workers = 1;
  int devices = 1;
  std::string shard_flag;  // empty = flag absent; validated below
  std::string cache_budget_flag;  // empty = cache off
  std::string cache_policy_flag;  // empty = static (validated below)
  bool cache_prefetch = false;
  int compute_threads = 0;  // 0 = GT_COMPUTE_THREADS / hardware default
  int batches_flag = -1;
  int max_retries = -1;  // -1 = ServiceOptions default
  int telemetry_interval = -1;   // -1 = GT_TELEMETRY_INTERVAL / default 1
  long watchdog_stall_ms = -1;   // -1 = GT_TELEMETRY_WATCHDOG_MS / off
  bool serve_mode = false;
  std::string arrival_flag;      // empty = poisson
  std::string rate_flag;         // empty = ArrivalConfig default
  long slo_ticks = -1;           // -1 = flag absent (no shedding)
  long queue_depth = -1;         // -1 = flag absent (default 64)
  long serve_requests = -1;      // -1 = flag absent (default 64)
  long max_batch = -1;           // -1 = flag absent (default 8)
  long max_wait_ticks = -1;      // -1 = flag absent (default 2000)
  long verts_per_request = -1;   // -1 = flag absent (default 32)
  // Serving flags seen on the command line, for the --serve requirement
  // check: any of them without --serve is a typo'd invocation.
  std::vector<std::string> serving_flags_seen;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace-out=", 0) == 0) {
      trace_flag = arg.substr(12);
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_flag = arg.substr(14);
    } else if (arg.rfind("--bench-out=", 0) == 0) {
      bench_flag = arg.substr(12);
    } else if (arg.rfind("--kernel-ledger-out=", 0) == 0) {
      ledger_flag = arg.substr(20);
    } else if (arg == "--kernel-ledger-out" && i + 1 < argc) {
      ledger_flag = argv[++i];
    } else if (arg.rfind("--workers=", 0) == 0) {
      workers = std::atoi(arg.c_str() + 10);
    } else if (arg == "--workers" && i + 1 < argc) {
      workers = std::atoi(argv[++i]);
    } else if (arg.rfind("--devices=", 0) == 0) {
      devices = std::atoi(arg.c_str() + 10);
    } else if (arg == "--devices" && i + 1 < argc) {
      devices = std::atoi(argv[++i]);
    } else if (arg.rfind("--shard=", 0) == 0) {
      shard_flag = arg.substr(8);
    } else if (arg == "--shard" && i + 1 < argc) {
      shard_flag = argv[++i];
    } else if (arg.rfind("--cache-budget=", 0) == 0) {
      cache_budget_flag = arg.substr(15);
    } else if (arg == "--cache-budget" && i + 1 < argc) {
      cache_budget_flag = argv[++i];
    } else if (arg.rfind("--cache-policy=", 0) == 0) {
      cache_policy_flag = arg.substr(15);
    } else if (arg == "--cache-policy" && i + 1 < argc) {
      cache_policy_flag = argv[++i];
    } else if (arg == "--prefetch") {
      cache_prefetch = true;
    } else if (arg.rfind("--compute-threads=", 0) == 0) {
      compute_threads = std::atoi(arg.c_str() + 18);
    } else if (arg == "--compute-threads" && i + 1 < argc) {
      compute_threads = std::atoi(argv[++i]);
    } else if (arg.rfind("--batches=", 0) == 0) {
      batches_flag = std::atoi(arg.c_str() + 10);
    } else if (arg == "--batches" && i + 1 < argc) {
      batches_flag = std::atoi(argv[++i]);
    } else if (arg.rfind("--fault-spec=", 0) == 0) {
      fault_spec = arg.substr(13);
    } else if (arg == "--fault-spec" && i + 1 < argc) {
      fault_spec = argv[++i];
    } else if (arg.rfind("--max-retries=", 0) == 0) {
      max_retries = std::atoi(arg.c_str() + 14);
    } else if (arg == "--max-retries" && i + 1 < argc) {
      max_retries = std::atoi(argv[++i]);
    } else if (arg.rfind("--telemetry-out=", 0) == 0) {
      telemetry_flag = arg.substr(16);
    } else if (arg == "--telemetry-out" && i + 1 < argc) {
      telemetry_flag = argv[++i];
    } else if (arg.rfind("--telemetry-interval=", 0) == 0) {
      telemetry_interval = std::atoi(arg.c_str() + 21);
    } else if (arg == "--telemetry-interval" && i + 1 < argc) {
      telemetry_interval = std::atoi(argv[++i]);
    } else if (arg.rfind("--watchdog-stall-ms=", 0) == 0) {
      watchdog_stall_ms = std::atol(arg.c_str() + 20);
    } else if (arg == "--watchdog-stall-ms" && i + 1 < argc) {
      watchdog_stall_ms = std::atol(argv[++i]);
    } else if (arg == "--serve") {
      serve_mode = true;
    } else if (arg.rfind("--arrival=", 0) == 0) {
      arrival_flag = arg.substr(10);
      serving_flags_seen.push_back("--arrival");
    } else if (arg == "--arrival" && i + 1 < argc) {
      arrival_flag = argv[++i];
      serving_flags_seen.push_back("--arrival");
    } else if (arg.rfind("--rate=", 0) == 0) {
      rate_flag = arg.substr(7);
      serving_flags_seen.push_back("--rate");
    } else if (arg == "--rate" && i + 1 < argc) {
      rate_flag = argv[++i];
      serving_flags_seen.push_back("--rate");
    } else if (arg.rfind("--slo-ticks=", 0) == 0) {
      slo_ticks = std::atol(arg.c_str() + 12);
      serving_flags_seen.push_back("--slo-ticks");
    } else if (arg == "--slo-ticks" && i + 1 < argc) {
      slo_ticks = std::atol(argv[++i]);
      serving_flags_seen.push_back("--slo-ticks");
    } else if (arg.rfind("--queue-depth=", 0) == 0) {
      queue_depth = std::atol(arg.c_str() + 14);
      serving_flags_seen.push_back("--queue-depth");
    } else if (arg == "--queue-depth" && i + 1 < argc) {
      queue_depth = std::atol(argv[++i]);
      serving_flags_seen.push_back("--queue-depth");
    } else if (arg.rfind("--requests=", 0) == 0) {
      serve_requests = std::atol(arg.c_str() + 11);
      serving_flags_seen.push_back("--requests");
    } else if (arg == "--requests" && i + 1 < argc) {
      serve_requests = std::atol(argv[++i]);
      serving_flags_seen.push_back("--requests");
    } else if (arg.rfind("--max-batch=", 0) == 0) {
      max_batch = std::atol(arg.c_str() + 12);
      serving_flags_seen.push_back("--max-batch");
    } else if (arg == "--max-batch" && i + 1 < argc) {
      max_batch = std::atol(argv[++i]);
      serving_flags_seen.push_back("--max-batch");
    } else if (arg.rfind("--max-wait-ticks=", 0) == 0) {
      max_wait_ticks = std::atol(arg.c_str() + 17);
      serving_flags_seen.push_back("--max-wait-ticks");
    } else if (arg == "--max-wait-ticks" && i + 1 < argc) {
      max_wait_ticks = std::atol(argv[++i]);
      serving_flags_seen.push_back("--max-wait-ticks");
    } else if (arg.rfind("--verts-per-request=", 0) == 0) {
      verts_per_request = std::atol(arg.c_str() + 20);
      serving_flags_seen.push_back("--verts-per-request");
    } else if (arg == "--verts-per-request" && i + 1 < argc) {
      verts_per_request = std::atol(argv[++i]);
      serving_flags_seen.push_back("--verts-per-request");
    } else {
      positional.push_back(arg);
    }
  }
  if (workers < 1) workers = 1;
  // Contradictory-flag validation, before any expensive setup: a --shard
  // with nothing to shard across is almost certainly a typo'd invocation,
  // so fail loudly instead of silently training single-device.
  if (devices < 1) {
    std::fprintf(stderr, "--devices=%d: device count must be >= 1\n",
                 devices);
    return 2;
  }
  if (!shard_flag.empty() && devices <= 1) {
    std::fprintf(stderr,
                 "--shard=%s requires --devices > 1 (sharding a single "
                 "device is a no-op; pass --devices=N to enable it)\n",
                 shard_flag.c_str());
    return 2;
  }
  gt::frameworks::ShardStrategy shard = gt::frameworks::ShardStrategy::kNone;
  if (!shard_flag.empty()) {
    try {
      shard = gt::frameworks::parse_shard_strategy(shard_flag);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "--shard=%s: %s\n", shard_flag.c_str(), e.what());
      return 2;
    }
  }
  std::size_t cache_budget = 0;
  if (!cache_budget_flag.empty() &&
      !parse_byte_size(cache_budget_flag, &cache_budget)) {
    std::fprintf(stderr,
                 "--cache-budget=%s: expected a byte count with an optional "
                 "K/M/G suffix (e.g. --cache-budget=8M)\n",
                 cache_budget_flag.c_str());
    return 2;
  }
  // Same typo-protection as --shard: a policy or prefetch request with no
  // byte budget would silently train uncached, so reject it up front.
  if ((!cache_policy_flag.empty() || cache_prefetch) && cache_budget == 0) {
    std::fprintf(stderr,
                 "%s requires a positive --cache-budget (the embedding "
                 "cache is off without a byte budget)\n",
                 !cache_policy_flag.empty() ? "--cache-policy" : "--prefetch");
    return 2;
  }
  gt::sampling::CachePolicy cache_policy = gt::sampling::CachePolicy::kStatic;
  if (!cache_policy_flag.empty()) {
    try {
      cache_policy = gt::sampling::parse_cache_policy(cache_policy_flag);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "--cache-policy=%s: %s\n",
                   cache_policy_flag.c_str(), e.what());
      return 2;
    }
  }
  // Serving-flag validation, all fail-fast before any dataset generation.
  if (!serve_mode && !serving_flags_seen.empty()) {
    std::fprintf(stderr,
                 "%s requires --serve (online serving flags do nothing in "
                 "training mode)\n",
                 serving_flags_seen.front().c_str());
    return 2;
  }
  gt::serving::ServeConfig serve_config;
  if (serve_mode) {
    if (!arrival_flag.empty()) {
      try {
        serve_config.arrival.kind =
            gt::serving::parse_arrival_kind(arrival_flag);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "--arrival=%s: %s\n", arrival_flag.c_str(),
                     e.what());
        return 2;
      }
    }
    if (!rate_flag.empty()) {
      char* end = nullptr;
      const double rate = std::strtod(rate_flag.c_str(), &end);
      if (end == rate_flag.c_str() || *end != '\0' || rate <= 0.0) {
        std::fprintf(stderr,
                     "--rate=%s: expected a positive arrival rate in "
                     "requests per virtual second\n",
                     rate_flag.c_str());
        return 2;
      }
      serve_config.arrival.rate_rps = rate;
    }
    if (slo_ticks < -1) {
      std::fprintf(stderr, "--slo-ticks=%ld: must be >= 0\n", slo_ticks);
      return 2;
    }
    if (slo_ticks > 0)
      serve_config.slo_ticks = static_cast<gt::serving::Tick>(slo_ticks);
    if (queue_depth == 0 || queue_depth < -1) {
      std::fprintf(stderr, "--queue-depth=%ld: capacity must be >= 1\n",
                   queue_depth);
      return 2;
    }
    if (queue_depth > 0)
      serve_config.queue_depth = static_cast<std::size_t>(queue_depth);
    if (serve_requests == 0 || serve_requests < -1) {
      std::fprintf(stderr, "--requests=%ld: must be >= 1\n", serve_requests);
      return 2;
    }
    if (serve_requests > 0)
      serve_config.requests = static_cast<std::size_t>(serve_requests);
    if (max_batch == 0 || max_batch < -1) {
      std::fprintf(stderr, "--max-batch=%ld: must be >= 1\n", max_batch);
      return 2;
    }
    if (max_batch > 0)
      serve_config.batch.max_batch_requests =
          static_cast<std::size_t>(max_batch);
    if (max_wait_ticks < -1) {
      std::fprintf(stderr, "--max-wait-ticks=%ld: must be >= 0\n",
                   max_wait_ticks);
      return 2;
    }
    if (max_wait_ticks >= 0)
      serve_config.batch.max_wait_ticks =
          static_cast<gt::serving::Tick>(max_wait_ticks);
    if (verts_per_request == 0 || verts_per_request < -1 ||
        verts_per_request > 0xffff) {
      std::fprintf(stderr,
                   "--verts-per-request=%ld: must be in [1, 65535]\n",
                   verts_per_request);
      return 2;
    }
    if (verts_per_request > 0)
      serve_config.vertices_per_request =
          static_cast<std::uint32_t>(verts_per_request);
    serve_config.arrival.seed = 42;  // matches the dataset seed below
  }
  const std::string trace_out = out_path(trace_flag, "GT_TRACE_OUT");
  const std::string metrics_out = out_path(metrics_flag, "GT_METRICS_OUT");
  const std::string bench_out = out_path(bench_flag, "GT_BENCH_OUT");
  const std::string dataset_name =
      positional.size() > 0 ? positional[0] : "products";
  const std::string model_name =
      positional.size() > 1 ? positional[1] : "GCN";
  const std::string framework =
      positional.size() > 2 ? positional[2] : "Prepro-GT";
  const int batches =
      batches_flag >= 0
          ? batches_flag
          : (positional.size() > 3 ? std::atoi(positional[3].c_str()) : 8);

  // The bench report embeds trace-derived analysis, so it needs spans too.
  if (!trace_out.empty() || !bench_out.empty())
    gt::obs::Tracer::global().enable(true);

  // An unknown dataset or framework name makes the catalog or the
  // framework factory throw std::out_of_range: report it like a bad flag.
  const gt::DatasetSpec* spec = nullptr;
  try {
    spec = &gt::find_spec(dataset_name);
  } catch (const std::out_of_range& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  gt::Dataset data = gt::generate(*spec, 42);
  gt::models::GnnModelConfig model = model_by_name(model_name, data.spec);

  gt::ServiceOptions options;
  options.framework = framework;
  options.learning_rate = 0.1f;
  options.workers = static_cast<std::size_t>(workers);
  options.devices = static_cast<std::size_t>(devices);
  options.shard = shard;  // kNone defaults to range inside the service
  options.cache_budget_bytes = cache_budget;
  options.cache_policy = cache_policy;
  options.cache_prefetch = cache_prefetch;
  if (compute_threads > 0)
    options.compute_threads = static_cast<std::size_t>(compute_threads);
  options.fault_spec = fault_spec;  // empty falls back to GT_FAULT_SPEC
  if (max_retries >= 0)
    options.max_retries = static_cast<std::uint32_t>(max_retries);
  // Flags override the GT_TELEMETRY_* environment (same precedence as the
  // other observability outputs).
  options.telemetry = gt::obs::live::TelemetryOptions::from_env();
  if (!telemetry_flag.empty()) options.telemetry.out_dir = telemetry_flag;
  if (telemetry_interval > 0)
    options.telemetry.interval =
        static_cast<std::uint64_t>(telemetry_interval);
  if (watchdog_stall_ms >= 0)
    options.telemetry.watchdog_stall_ms =
        static_cast<std::uint64_t>(watchdog_stall_ms);
  // The service arms the ledger itself and writes kernels.json when it is
  // destroyed (flag wins over GT_KERNEL_LEDGER_OUT, like the other outs).
  options.kernel_ledger_out = out_path(ledger_flag, "GT_KERNEL_LEDGER_OUT");
  std::unique_ptr<gt::GnnService> service_ptr;
  try {
    service_ptr = std::make_unique<gt::GnnService>(std::move(data), model,
                                                   options);
  } catch (const std::logic_error& e) {  // invalid_argument or out_of_range
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  gt::GnnService& service = *service_ptr;

  if (serve_mode) {
    std::printf(
        "serving %s on %s via %s: %zu requests, %s arrivals @ %.1f rps, "
        "slo %llu ticks, queue %zu, batch <= %zu, %d worker%s\n\n",
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
    if (service.telemetry() != nullptr)
      std::printf("telemetry in %s (snapshots + events.jsonl; tail with "
                  "tools/gt_top)\n",
                  service.telemetry()->options().out_dir.c_str());
    if (!trace_out.empty()) {
      if (gt::obs::Tracer::global().write_chrome_trace_file(trace_out))
        std::printf("trace written to %s\n", trace_out.c_str());
      else
        std::fprintf(stderr, "failed to write trace to %s\n",
                     trace_out.c_str());
    }
    if (!metrics_out.empty()) {
      if (gt::obs::metrics().write_json_file(metrics_out))
        std::printf("metrics written to %s\n", metrics_out.c_str());
      else
        std::fprintf(stderr, "failed to write metrics to %s\n",
                     metrics_out.c_str());
    }
    if (!bench_out.empty()) {
      gt::obs::BenchReporter& rep_out = gt::obs::BenchReporter::global();
      rep_out.set_binary("service_cli");
      rep_out.set_iterations(static_cast<int>(rep.batches));
      rep_out.set_context("service_cli --serve",
                          model_name + " on " + dataset_name + " via " +
                              framework + ", " +
                              gt::serving::to_string(
                                  serve_config.arrival.kind) +
                              " arrivals");
      gt::obs::BenchRow row;
      row.dataset = dataset_name;
      row.framework = framework;
      row.metric = "p50 request latency";
      row.unit = "ticks";
      row.measured = rep.p50_latency_ticks;
      rep_out.add_row(row);
      row.metric = "p95 request latency";
      row.measured = rep.p95_latency_ticks;
      rep_out.add_row(row);
      row.metric = "p99 request latency";
      row.measured = rep.p99_latency_ticks;
      rep_out.add_row(row);
      row.metric = "goodput";
      row.unit = "rps";
      row.measured = rep.goodput_rps;
      rep_out.add_row(row);
      row.metric = "shed rate";
      row.unit = "fraction";
      row.measured = rep.shed_rate();
      rep_out.add_row(row);
      row.metric = "requests completed";
      row.unit = "count";
      row.measured = static_cast<double>(rep.completed);
      rep_out.add_row(row);
      row.metric = "requests shed";
      row.measured = static_cast<double>(rep.shed());
      rep_out.add_row(row);
      row.metric = "requests degraded";
      row.measured = static_cast<double>(rep.degraded);
      rep_out.add_row(row);
      row.metric = "serving batches";
      row.measured = static_cast<double>(rep.batches);
      rep_out.add_row(row);
      row.metric = "mean batch fill";
      row.unit = "fraction";
      row.measured = rep.mean_batch_fill;
      rep_out.add_row(row);
      if (rep_out.write_json_file(bench_out))
        std::printf("bench report written to %s\n", bench_out.c_str());
      else
        std::fprintf(stderr, "failed to write bench report to %s\n",
                     bench_out.c_str());
    }
    return 0;
  }

  std::printf("training %s on %s via %s (%d batches of %zu, %d worker%s)\n",
              model_name.c_str(), dataset_name.c_str(), framework.c_str(),
              batches, options.batch_size, workers, workers == 1 ? "" : "s");
  if (devices > 1)
    std::printf("modeled multi-device: %d devices, %s sharding\n", devices,
                gt::frameworks::to_string(
                    shard == gt::frameworks::ShardStrategy::kNone
                        ? gt::frameworks::ShardStrategy::kRange
                        : shard));
  if (cache_budget > 0)
    std::printf("embedding cache: %zu bytes, %s policy%s\n", cache_budget,
                gt::sampling::to_string(cache_policy),
                cache_prefetch ? ", prefetch on" : "");
  std::printf("\n");

  gt::Table table({"batch", "loss", "kernel us", "preproc us", "e2e us",
                   "peak mem", "arena peak", "placement L0"});
  std::vector<double> e2e_us, losses, arena_peaks, arena_allocs;
  std::vector<double> host_prep_us, host_exec_us;
  std::vector<double> group_makespans, comm_us;
  double comm_bytes = 0.0, comm_steps = 0.0, collectives = 0.0;
  const std::vector<gt::frameworks::RunReport> reports =
      service.train_batches(static_cast<std::size_t>(batches));
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

  if (service.telemetry() != nullptr)
    std::printf("telemetry in %s (snapshots + events.jsonl; tail with "
                "tools/gt_top)\n",
                service.telemetry()->options().out_dir.c_str());

  if (!trace_out.empty()) {
    if (gt::obs::Tracer::global().write_chrome_trace_file(trace_out))
      std::printf("trace written to %s (load in chrome://tracing)\n",
                  trace_out.c_str());
    else
      std::fprintf(stderr, "failed to write trace to %s\n",
                   trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    if (gt::obs::metrics().write_json_file(metrics_out))
      std::printf("metrics written to %s\n", metrics_out.c_str());
    else
      std::fprintf(stderr, "failed to write metrics to %s\n",
                   metrics_out.c_str());
  }
  if (!bench_out.empty()) {
    gt::obs::BenchReporter& rep = gt::obs::BenchReporter::global();
    rep.set_binary("service_cli");
    rep.set_iterations(batches);
    rep.set_context("service_cli",
                    model_name + " on " + dataset_name + " via " + framework);
    {
      gt::obs::BenchRow row;
      row.metric = "mean batch e2e";
      row.dataset = dataset_name;
      row.framework = framework;
      row.unit = "us";
      row.measured = gt::mean(e2e_us);
      rep.add_row(row);
      row.metric = "final batch loss";
      row.unit = "loss";
      row.measured = losses.empty() ? 0.0 : losses.back();
      rep.add_row(row);
      row.metric = "held-out accuracy";
      row.unit = "fraction";
      row.measured = accuracy;
      rep.add_row(row);
      row.metric = "arena peak";
      row.unit = "bytes";
      row.measured = arena_peaks.empty()
                         ? 0.0
                         : *std::max_element(arena_peaks.begin(),
                                             arena_peaks.end());
      rep.add_row(row);
      row.metric = "arena allocations per batch";
      row.unit = "count";
      row.measured = gt::mean(arena_allocs);
      rep.add_row(row);
      // Real host time (steady_clock), not simulated: varies with machine
      // load and --compute-threads, unlike every row above.
      row.metric = "mean host prepare wall";
      row.unit = "us";
      row.measured = gt::mean(host_prep_us);
      rep.add_row(row);
      row.metric = "mean host execute wall";
      row.unit = "us";
      row.measured = gt::mean(host_exec_us);
      rep.add_row(row);
      row.metric = "degraded batches";
      row.unit = "count";
      row.measured = static_cast<double>(degraded_batches);
      rep.add_row(row);
      row.metric = "recovery retries";
      row.unit = "count";
      row.measured = static_cast<double>(recovery_retries);
      rep.add_row(row);
      if (!group_makespans.empty()) {
        // Multi-device rows: the modeled group timeline and the collective
        // traffic it absorbed (DESIGN.md §14).
        row.metric = "devices";
        row.unit = "count";
        row.measured = static_cast<double>(devices);
        rep.add_row(row);
        row.metric = "mean group makespan";
        row.unit = "us";
        row.measured = gt::mean(group_makespans);
        rep.add_row(row);
        row.metric = "mean collective comm";
        row.unit = "us";
        row.measured = gt::mean(comm_us);
        rep.add_row(row);
        row.metric = "collective wire bytes";
        row.unit = "bytes";
        row.measured = comm_bytes;
        rep.add_row(row);
        row.metric = "collective steps";
        row.unit = "count";
        row.measured = comm_steps;
        rep.add_row(row);
        row.metric = "collectives priced";
        row.unit = "count";
        row.measured = collectives;
        rep.add_row(row);
      }
      if (cache_budget > 0) {
        // Embedding cache rows (DESIGN.md §15), read back from the
        // committed per-tier counters in the metrics registry.
        gt::obs::MetricsRegistry& m = gt::obs::metrics();
        const auto count = [&m](const char* name) {
          return static_cast<double>(m.counter(name).value());
        };
        row.metric = "cache hit rate";
        row.unit = "fraction";
        row.measured = m.gauge("embedding_cache.hit_rate").value();
        rep.add_row(row);
        row.metric = "cache static hits";
        row.unit = "count";
        row.measured = count("cache.static.hits");
        rep.add_row(row);
        row.metric = "cache dynamic hits";
        row.unit = "count";
        row.measured = count("cache.dynamic.hits");
        rep.add_row(row);
        row.metric = "cache prefetch hits";
        row.unit = "count";
        row.measured = count("cache.prefetch.hits");
        rep.add_row(row);
        row.metric = "cache misses";
        row.unit = "count";
        row.measured = count("cache.misses");
        rep.add_row(row);
        row.metric = "cache evictions";
        row.unit = "count";
        row.measured = count("cache.evictions");
        rep.add_row(row);
        row.metric = "cache ring chunks";
        row.unit = "count";
        row.measured = count("cache.ring.chunks");
        rep.add_row(row);
      }
    }
    if (rep.write_json_file(bench_out))
      std::printf("bench report written to %s\n", bench_out.c_str());
    else
      std::fprintf(stderr, "failed to write bench report to %s\n",
                   bench_out.c_str());
  }
  return 0;
}
