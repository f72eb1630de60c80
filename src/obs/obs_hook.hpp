// ObsHook: the one writer of a program's post-hoc observability artifacts.
// It takes the four output paths — Chrome trace, metrics registry dump,
// structured bench report, kernel-attribution ledger — and writes each
// non-empty one when it is destroyed. The bench binaries pass their GT_*
// environment values (bench/bench_util.hpp); service_cli passes its option
// table's values.
//
// Only a trace path enables span tracing, for the hook's lifetime. The
// bench report is rows and run metadata alone (the modeled stage breakdown
// is the ledger's kernels.json), so it needs no timeline. Without a trace
// path tracing stays disabled and the Span fast path is a single relaxed
// load, so measured numbers are unaffected by default.
#pragma once

#include <cstdio>
#include <string>

#include "obs/attrib/kernel_ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace gt::obs {

class ObsHook {
 public:
  ObsHook(std::string trace_out, std::string metrics_out,
          std::string bench_out, std::string ledger_out)
      : trace_out_(std::move(trace_out)),
        metrics_out_(std::move(metrics_out)),
        bench_out_(std::move(bench_out)),
        ledger_out_(std::move(ledger_out)) {
    if (!trace_out_.empty()) Tracer::global().enable(true);
#ifndef GT_OBS_DISABLE
    if (!ledger_out_.empty()) attrib::KernelLedger::global().arm(ledger_out_);
#endif
  }
  ~ObsHook() {
#ifndef GT_OBS_DISABLE
    // Only the ledger this hook armed: a GnnService that armed its own
    // writes it when the service is destroyed.
    attrib::KernelLedger& ledger = attrib::KernelLedger::global();
    if (!ledger_out_.empty() && ledger.armed()) {
      if (ledger.write_json_file())
        std::printf("[obs] kernel ledger written to %s (%zu batches, %zu "
                    "kernel classes)\n",
                    ledger.out_path().c_str(), ledger.batch_count(),
                    ledger.kernel_class_count());
      else
        std::fprintf(stderr, "[obs] failed to write kernel ledger to %s\n",
                     ledger.out_path().c_str());
      ledger.disarm();
    }
#endif
    if (!trace_out_.empty())
      report(Tracer::global().write_chrome_trace_file(trace_out_), "trace",
             trace_out_);
    if (!metrics_out_.empty())
      report(metrics().write_json_file(metrics_out_), "metrics",
             metrics_out_);
    if (!bench_out_.empty())
      report(BenchReporter::global().write_json_file(bench_out_),
             "bench report", bench_out_);
  }
  ObsHook(const ObsHook&) = delete;
  ObsHook& operator=(const ObsHook&) = delete;

 private:
  static void report(bool written, const char* what,
                     const std::string& path) {
    if (written)
      std::printf("[obs] %s written to %s\n", what, path.c_str());
    else
      std::fprintf(stderr, "[obs] failed to write %s to %s\n", what,
                   path.c_str());
  }

  std::string trace_out_;
  std::string metrics_out_;
  std::string bench_out_;
  std::string ledger_out_;
};

}  // namespace gt::obs
