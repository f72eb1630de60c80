#include "fault/harness.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "datasets/catalog.hpp"
#include "models/config.hpp"
#include "util/log.hpp"

namespace gt::fault {

namespace {

/// A schedule recovers bit-identically iff every fault it throws is
/// transient and finite: `always`/`times=inf` degrade a batch, kind=oom
/// takes the OOM report path (batch excluded from SGD), kind=abort
/// unwinds.
bool spec_is_recoverable(const std::string& spec) {
  const FaultPlan plan = FaultPlan::parse(spec);
  for (const FaultEntry& e : plan.entries()) {
    if (e.kind != Kind::kTransient) return false;
    if (e.times == kForever) return false;
  }
  return true;
}

/// Batch-intrinsic report equality: everything a fault-free serial run
/// pins down. Host wall-clock fields, retry accounting, and the
/// context-local arena capacity/growth fields legitimately differ.
bool reports_equal(const frameworks::RunReport& a,
                   const frameworks::RunReport& b) {
  return a.oom == b.oom && a.failed == b.failed && a.loss == b.loss &&
         a.kernel_launches == b.kernel_launches &&
         a.kernel_total_us == b.kernel_total_us &&
         a.end_to_end_us == b.end_to_end_us && a.flops == b.flops &&
         a.global_bytes == b.global_bytes &&
         a.peak_memory_bytes == b.peak_memory_bytes &&
         a.preproc_makespan_us == b.preproc_makespan_us &&
         a.arena_peak_bytes == b.arena_peak_bytes &&
         a.arena_allocations == b.arena_allocations &&
         a.layer_comb_first_fwd == b.layer_comb_first_fwd &&
         a.layer_comb_first_bwd == b.layer_comb_first_bwd;
}

bool all_reports_equal(const std::vector<frameworks::RunReport>& a,
                       const std::vector<frameworks::RunReport>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!reports_equal(a[i], b[i])) return false;
  return true;
}

struct RunOutput {
  std::vector<frameworks::RunReport> reports;
  std::uint64_t digest = 0;
  std::uint64_t injected = 0;
  std::uint64_t retries = 0;
  std::uint64_t backoff_ticks = 0;
  std::size_t degraded = 0;
  std::size_t oom = 0;
};

RunOutput run_one(const Dataset& data, const HarnessOptions& opts,
                  const std::string& backend, std::size_t workers,
                  const std::string& spec) {
  ServiceOptions sopt;
  sopt.framework = backend;
  sopt.batch_size = opts.batch_size;
  sopt.workers = workers;
  sopt.fault_spec = spec;
  sopt.max_retries = opts.max_retries;
  GnnService service(data, models::gcn(8, 47), sopt);
  RunOutput out;
  out.reports = service.train_batches(opts.batches);
  out.digest = params_digest(service.params());
  if (service.fault_plan() != nullptr)
    out.injected = service.fault_plan()->injected();
  out.backoff_ticks = service.virtual_backoff_ticks();
  for (const frameworks::RunReport& r : out.reports) {
    out.retries += r.retries;
    out.degraded += r.failed;
    out.oom += r.oom;
  }
  return out;
}

}  // namespace

std::vector<std::string> default_fault_specs() {
  return {
      "preproc.sample@batch=1",
      "preproc.reindex@batch=2:layer=1",
      "transfer@batch=0",
      "gpusim.kernel@batch=3:times=2",
      "gpusim.alloc@batch=2",
      "gpusim.alloc@batch=2:kind=oom",
      "preproc.sample@batch=4:always",
  };
}

std::uint64_t params_digest(const models::ModelParams& params) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  auto mix = [&h](const Matrix& m) {
    for (float f : m.data()) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, &f, sizeof(bits));
      for (int shift = 0; shift < 32; shift += 8) {
        h ^= (bits >> shift) & 0xffu;
        h *= 0x100000001b3ull;  // FNV prime
      }
    }
  };
  for (std::uint32_t l = 0; l < params.num_layers(); ++l) {
    mix(params.w(l));
    mix(params.b(l));
  }
  return h;
}

HarnessResult run_sweep(const HarnessOptions& opts) {
  // A schedule aimed past the last batch never fires and would read as a
  // recovery failure, so a too-short sweep is a usage error.
  std::uint64_t reach = 0;
  for (const std::string& spec : opts.fault_specs)
    for (const FaultEntry& e : FaultPlan::parse(spec).entries())
      reach = std::max(reach, e.batch + 1);
  if (opts.batches < reach)
    throw std::invalid_argument(
        "a sweep of " + std::to_string(opts.batches) +
        " batches cannot reach every schedule (one fires at batch " +
        std::to_string(reach - 1) + "); run at least " +
        std::to_string(reach) + " batches");
  HarnessResult result;
  const Dataset data = generate(opts.dataset, opts.dataset_seed);
  for (const std::string& backend : opts.backends) {
    // Fault-free serial baseline: the ground truth every recoverable
    // schedule must reproduce bit for bit.
    const RunOutput base = run_one(data, opts, backend, 1, "");
    {
      HarnessRun r;
      r.backend = backend;
      r.workers = 1;
      r.recoverable = true;
      r.params_digest = base.digest;
      r.params_match = r.reports_match = r.ok = true;
      result.runs.push_back(std::move(r));
    }
    // The stock specs all hit first-occurrence coordinates. Aim one extra
    // transient fault at the LAST kernel launch of a batch — deep in the
    // backward pass, after gradients for later layers are already staged —
    // the coordinate that used to leak partially applied SGD updates into
    // the retry. The occurrence count is backend-specific, so it is read
    // off the fault-free baseline's report.
    std::vector<std::string> specs = opts.fault_specs;
    if (opts.batches > 1 && base.reports.size() > 1 &&
        base.reports[1].kernel_launches > 0)
      specs.push_back(
          "gpusim.kernel@batch=1:layer=" +
          std::to_string(base.reports[1].kernel_launches - 1));
    for (const std::string& spec : specs) {
      const bool recoverable = spec_is_recoverable(spec);
      // Reference for worker-count parity: the first worker count's run
      // of this same schedule.
      RunOutput ref;
      bool have_ref = false;
      for (std::size_t workers : opts.worker_counts) {
        const RunOutput out = run_one(data, opts, backend, workers, spec);
        HarnessRun r;
        r.backend = backend;
        r.workers = workers;
        r.fault_spec = spec;
        r.recoverable = recoverable;
        r.injected = out.injected;
        r.retries = out.retries;
        r.backoff_ticks = out.backoff_ticks;
        r.degraded = out.degraded;
        r.oom = out.oom;
        r.params_digest = out.digest;
        const RunOutput& want = recoverable ? base : (have_ref ? ref : out);
        r.params_match = out.digest == want.digest;
        r.reports_match = all_reports_equal(out.reports, want.reports);
        r.ok = r.params_match && r.reports_match;
        if (!r.params_match) r.why = "params digest mismatch";
        else if (!r.reports_match) r.why = "report fields mismatch";
        if (out.injected == 0) {
          r.ok = false;
          r.why = "schedule never fired";
        }
        if (recoverable && r.ok && (out.degraded != 0 || out.oom != 0)) {
          r.ok = false;
          r.why = "recoverable schedule degraded/OOMed";
        }
        if (!recoverable && r.ok && out.degraded == 0 && out.oom == 0) {
          r.ok = false;
          r.why = "degrading schedule left no mark";
        }
        result.all_ok = result.all_ok && r.ok;
        if (!r.ok)
          log_warn("fault harness: ", backend, " workers=", workers, " '",
                   spec, "': ", r.why);
        result.runs.push_back(std::move(r));
        if (!have_ref) {
          ref = out;
          have_ref = true;
        }
      }
    }
  }
  return result;
}

}  // namespace gt::fault
