// FaultHarness: sweeps fault-injection schedules over the serving stack
// and asserts the recovery invariants that make gt::fault trustworthy:
//
//   * recoverable schedules (transient faults with a finite budget) leave
//     the trained parameters bit-identical to a fault-free run, and every
//     batch-intrinsic report field unchanged;
//   * every schedule yields identical parameters at every worker count
//     (the ring's recovery path and the serial path converge);
//   * degrading / OOM schedules mark the expected batches and the service
//     keeps serving the rest.
//
// Used by tools/fault_harness (CI chaos job) and tests/fault/test_harness.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/service.hpp"
#include "frameworks/framework.hpp"

namespace gt::fault {

/// The stock schedule set: one transient fault per site, a repeated
/// kernel fault, an injected allocator OOM, and an `always` entry that
/// drives a batch into graceful degradation.
std::vector<std::string> default_fault_specs();

struct HarnessOptions {
  std::string dataset = "products";
  std::uint64_t dataset_seed = 3;
  std::vector<std::string> backends = frameworks::framework_names();
  std::vector<std::size_t> worker_counts = {1, 4};
  std::vector<std::string> fault_specs = default_fault_specs();
  std::size_t batches = 6;
  std::size_t batch_size = 48;
  std::uint32_t max_retries = 3;
};

/// One (backend, workers, spec) run of the sweep.
struct HarnessRun {
  std::string backend;
  std::size_t workers = 0;
  std::string fault_spec;       // empty = the fault-free baseline
  bool recoverable = false;     // schedule should recover bit-identically
  std::uint64_t injected = 0;   // faults the plan actually threw
  std::uint64_t retries = 0;    // recovery attempts across the run
  std::uint64_t backoff_ticks = 0;
  std::size_t degraded = 0;
  std::size_t oom = 0;
  std::uint64_t params_digest = 0;
  bool params_match = false;    // digest parity (see run_sweep docs)
  bool reports_match = false;   // batch-intrinsic report fields parity
  bool ok = false;
  std::string why;              // first failed invariant, for diagnostics
};

struct HarnessResult {
  std::vector<HarnessRun> runs;
  bool all_ok = true;
};

/// FNV-1a over every parameter matrix's float bytes, in layer order —
/// "bit-identical parameters" reduced to one comparable word.
std::uint64_t params_digest(const models::ModelParams& params);

/// Run the sweep. Per backend: a fault-free workers=1 baseline, then one
/// service per (fault spec x worker count). On top of opts.fault_specs the
/// sweep aims one transient fault at batch 1's last kernel launch (a
/// mid-backward coordinate, derived from the baseline's kernel_launches),
/// guarding the staged-SGD commit rule. Invariants checked per run:
/// params_match — recoverable schedules match the fault-free digest, all
/// others match the same-spec workers=worker_counts[0] digest;
/// reports_match — the analogous per-batch intrinsic-field comparison;
/// plus schedule-specific expectations (injected > 0, degraded/oom counts).
/// Throws std::invalid_argument when opts.batches is too short for a
/// schedule's batch= coordinate to fire.
HarnessResult run_sweep(const HarnessOptions& opts = {});

}  // namespace gt::fault
