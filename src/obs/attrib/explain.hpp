// Differential analysis over two kernel-ledger artifacts.
//
// gt_explain answers "why did this run get slower" by diffing two
// kernels.json files (KernelLedger output). Totals are normalized to
// per-batch before differencing, so a 64-batch baseline compares cleanly
// against a 48-batch current run. The stage-level attribution reuses the
// ledger's exact identity (kernel_ledger.hpp's stage_terms):
//
//   e2e = sampling + reindex + lookup + transfer + fwp + bwp
//         - overlap_hidden
//
// so the seven stage deltas sum to the measured end-to-end delta *by
// construction* — no residual bucket, no unexplained remainder. Below the
// stage level, per-kernel-class deltas rank which kernels moved; their sum
// equals delta(fwp) + delta(bwp) up to kernels recorded outside FWP/BWP
// (phase "other" kernels are shown but flagged).
#pragma once

#include <cstddef>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace gt::obs::attrib {

/// One parsed kernels.json, per-batch-normalized views included.
struct LedgerData {
  std::size_t batches = 0;
  // Raw sums straight from totals{} (microseconds).
  double end_to_end_us = 0.0;
  double makespan_us = 0.0;
  double stage_us[4] = {0.0, 0.0, 0.0, 0.0};  // sampling/reindex/lookup/transfer
  double fwp_us = 0.0;
  double bwp_us = 0.0;
  double overlap_hidden_us = 0.0;

  struct Kernel {
    std::string phase;     // fwd / bwd / other
    std::string category;
    double total_us = 0.0;
    double launches = 0.0;
  };
  std::map<std::string, Kernel, std::less<>> kernels;  // class key -> sums

  double residual_p50_pct = 0.0;
  double residual_p95_pct = 0.0;
  std::size_t residual_samples = 0;

  /// Per-batch normalizer (>= 1 even for an empty artifact, so the
  /// normalized views are always finite).
  double per_batch(double sum_us) const noexcept;

  /// Parse a kernels.json; false + message on IO/parse/schema mismatch.
  static bool load(const std::string& path, LedgerData* out,
                   std::string* error);
};

/// One stage term of the attribution (per-batch microseconds).
struct StageDelta {
  std::string name;
  double base_us = 0.0;
  double cur_us = 0.0;
  double delta_us = 0.0;  // cur - base; negative terms *reduce* e2e
};

/// One kernel class's movement (per-batch microseconds).
struct KernelDelta {
  std::string key;
  std::string phase;
  double base_us = 0.0;
  double cur_us = 0.0;
  double delta_us = 0.0;
};

struct Attribution {
  double base_e2e_us = 0.0;  // per batch
  double cur_e2e_us = 0.0;
  double delta_e2e_us = 0.0;

  /// The seven identity terms, fixed order: sampling, reindex, lookup,
  /// transfer, fwp, bwp, overlap_hidden (negated).
  /// sum(delta_us) == delta_e2e_us exactly.
  std::vector<StageDelta> stages;
  /// Sum of stages[i].delta_us — retained for the invariant check.
  double stage_delta_sum_us = 0.0;

  /// Every kernel class present in either run, sorted by |delta| desc.
  std::vector<KernelDelta> kernels;
  /// Sum over fwd+bwd kernel deltas; equals delta(fwp)+delta(bwp).
  double kernel_delta_sum_us = 0.0;

  double base_residual_p95_pct = 0.0;
  double cur_residual_p95_pct = 0.0;
};

/// Diff two loaded ledgers (per-batch normalized).
Attribution attribute(const LedgerData& base, const LedgerData& cur);

/// Human-readable report: header, stage table, top kernel classes,
/// cost-model drift note, and the sums-to-total check line.
void write_text(const Attribution& a, std::ostream& os, std::size_t top_n);

/// Compact top-N kernel attribution (bench_diff appends this under a
/// regression verdict). One line per class.
void write_top_kernels(const Attribution& a, std::ostream& os,
                       std::size_t top_n);

/// Machine-readable form of the full attribution.
void write_json(const Attribution& a, std::ostream& os);

/// Deterministic self-check fixture: copy `base` with its largest kernel
/// class scaled by 1.5x, the extra time added to that class's phase total
/// and to end_to_end (the identity is preserved by construction).
LedgerData perturb_largest_kernel(const LedgerData& base);

/// Self-test on one artifact: identical-pair attribution must be ~0 and
/// the perturbed pair must rank the scaled class first with the stage sum
/// matching the e2e delta within `tol_rel`. Returns true on pass; writes
/// a pass/fail narrative to `os`.
bool run_self_test(const LedgerData& base, std::ostream& os,
                   double tol_rel = 0.01);

/// CLI core for tools/gt_explain. argv-style args (no program name).
/// Exit codes: 0 analysis ok (or self-test pass), 1 self-test failure or
/// violated sum invariant, 2 usage/IO error.
int run_gt_explain(const std::vector<std::string>& args, std::ostream& out,
                   std::ostream& err);

}  // namespace gt::obs::attrib
