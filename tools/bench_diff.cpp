// bench_diff: compare two bench reports (BENCH_*.json) row by row and
// gate perf regressions.
//
//   $ bench_diff [--threshold=0.05] [--json] baseline.json current.json
//
// Exit codes: 0 = no regression, 1 = some row regressed past the
// threshold, 2 = bad usage / unreadable input / comparison incomplete (a
// baseline row is missing from the candidate — that is not a measured
// regression but a comparison that never happened, and it fails loudly
// with a per-row diagnostic instead of a partial verdict). The comparison
// itself lives in gt::obs (obs/report.hpp) so tests exercise the exact
// CLI semantics; this file only parses arguments.
//
// On a regression verdict (exit 1), bench_diff attributes the failure: it
// looks for each run's kernel-ledger artifact (a sibling kernels.json, or
// --baseline-kernels=/--current-kernels=) and prints the top kernel
// classes by per-batch latency movement (--top=N, default 3) — the quick
// root cause, with tools/gt_explain for the full breakdown. --json emits
// one machine-readable document (verdict, counts, rows, attribution)
// instead of the text table; exit codes are identical.
//
// A row with a paper target regresses when its measured value moves away
// from the paper value by more than the threshold (relative to |paper|);
// a row without one regresses when the measured value drifts more than
// the threshold from the baseline run. Every bench is deterministic by
// construction, so the default threshold exists to absorb float-format
// round-off, not run-to-run noise.
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>

#include "obs/report.hpp"
#include "util/options.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--threshold=FRACTION] [--json] [--top=N]\n"
               "       [--baseline-kernels=F] [--current-kernels=F]\n"
               "       baseline.json current.json\n"
               "  --threshold=F  max tolerated growth of a row's relative\n"
               "                 deviation (default 0.05, or the\n"
               "                 GT_BENCH_DIFF_THRESHOLD environment "
               "variable)\n"
               "  --json         machine-readable output (same exit codes)\n"
               "  --top=N        kernel classes shown when attributing a\n"
               "                 regression (default 3; 0 disables)\n"
               "  --baseline-kernels=F / --current-kernels=F\n"
               "                 kernel-ledger artifacts for attribution\n"
               "                 (default: kernels.json next to each report)\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  gt::obs::BenchDiffOptions opt;
  std::string baseline, current;
  bool help = false;
  try {
    gt::parse_options(
        {gt::text("baseline", &baseline),
         gt::text("current", &current),
         gt::real("--threshold", &opt.threshold, "threshold fraction",
                  /*allow_zero=*/true)
             .env("GT_BENCH_DIFF_THRESHOLD"),
         gt::flag("--json", &opt.json),
         gt::count("--top", &opt.top_kernels, "kernel class count", 0),
         gt::text("--baseline-kernels", &opt.baseline_kernels),
         gt::text("--current-kernels", &opt.current_kernels),
         gt::flag("--help", &help), gt::flag("-h", &help)},
        {argv + 1, argv + argc});
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench_diff: %s\n", e.what());
    return 2;
  }
  if (help) {
    usage(argv[0]);
    return 0;
  }
  if (current.empty()) return usage(argv[0]);
  return gt::obs::run_bench_diff(baseline, current, opt, std::cout);
}
