// FaultHarness CLI: sweep the stock fault-injection schedules over the
// serving backends and verify the recovery invariants (bit-identical
// parameters for recoverable schedules, worker-count parity for all).
// Exits nonzero on any violated invariant — CI's chaos gate.
//
//   $ ./tools/fault_harness [--batches=N] [--quick]
//
// --quick trims the sweep to one GT backend and one baseline (the unit
// tests cover the rest); the default runs all eight backends.
// --batches (default 6) must reach every schedule's batch= coordinate (at
// least 5 for the stock set); a bad or too-short value exits 2.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "fault/harness.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  gt::fault::HarnessOptions opts;
  bool quick = false;
  gt::fault::HarnessResult result;
  try {
    gt::parse_options(
        {gt::count("--batches", &opts.batches, "batch count", 1, 1'000'000),
         gt::flag("--quick", &quick)},
        {argv + 1, argv + argc});
    if (quick) {
      opts.backends = {"DGL", "Prepro-GT"};
      opts.worker_counts = {1, 4};
    }
    result = gt::fault::run_sweep(opts);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "fault_harness: %s\n", e.what());
    return 2;
  }

  gt::Table table({"backend", "workers", "schedule", "injected", "retries",
                   "degraded", "oom", "params", "reports", "status"});
  for (const gt::fault::HarnessRun& r : result.runs) {
    table.add_row({r.backend, std::to_string(r.workers),
                   r.fault_spec.empty() ? "(fault-free)" : r.fault_spec,
                   std::to_string(r.injected), std::to_string(r.retries),
                   std::to_string(r.degraded), std::to_string(r.oom),
                   r.params_match ? "match" : "MISMATCH",
                   r.reports_match ? "match" : "MISMATCH",
                   r.ok ? "ok" : ("FAIL: " + r.why)});
  }
  table.print();
  std::printf("\n%zu runs, %s\n", result.runs.size(),
              result.all_ok ? "all invariants hold" : "INVARIANT VIOLATED");
  return result.all_ok ? 0 : 1;
}
