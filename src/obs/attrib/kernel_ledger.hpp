// KernelLedger: per-run kernel-level perf attribution artifact.
//
// bench_diff can say *that* a run got slower and gt_top shows it live, but
// neither explains *why* below the S/R/K/T/FWP/BWP stage shares. The
// ledger closes that gap: while armed it aggregates every priced
// gpusim::KernelStats a framework reports, keyed by (kernel name,
// launch-shape signature, phase), records per-batch stage totals in a form
// whose terms sum *exactly* to the end-to-end latency, and joins the DKP
// cost model's predictions against measured layer latencies. One
// schema-versioned `kernels.json` per run sits next to the existing
// bench/trace/metrics artifacts; tools/gt_explain diffs two of them.
//
// The ledger's stage totals are sums of stage_terms() below, the one
// decomposition of a batch's end-to-end latency (m = preproc makespan):
//
//   e2e = S + R + K + T + fwp + bwp - hidden,   S + R + K + T = m
//
// where each stage term is m split in proportion to that stage's busy
// core-us, and hidden = m + fwp + bwp - e2e is the compute that
// preprocessing hid (0 when the two run serialized). The terms are
// recorded per batch, so the summed totals keep the identity exactly and
// gt_explain's stage deltas sum to the measured e2e delta by
// construction. Fig 12's shares are these terms over e2e.
//
// Arming: ServiceOptions::kernel_ledger_out (service_cli's
// --kernel-ledger-out / GT_KERNEL_LEDGER_OUT) or a bench binary's ObsHook
// (GT_KERNEL_LEDGER_OUT). Off (the default), record sites skip all work
// behind one relaxed atomic load, so armed-off runs stay bit-identical —
// and the call sites compile away entirely under GT_OBS_DISABLE.
// Process-wide singleton like Tracer/MetricsRegistry: one ledger per
// process, re-arming resets the accumulation.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace gt::obs::attrib {

inline constexpr int kKernelLedgerSchemaVersion = 2;

/// One profile entry, pre-stringified by the recording site (frameworks
/// own the gpusim types; obs deliberately does not link against them).
struct KernelRecord {
  std::string name;
  std::string category;  // gpusim::to_string(KernelCategory)
  std::string phase;     // gpusim::to_string(KernelPhase): fwd/bwd/other
  std::size_t blocks = 0;
  double latency_us = 0.0;
  std::uint64_t flops = 0;
  std::size_t global_bytes = 0;
  /// Device lane of a multi-device (sharded) run; -1 = single device.
  /// Keys a separate kernel class and emits a "device" JSON column, so
  /// single-device artifacts stay byte-identical.
  int device = -1;
};

/// Latencies of one *reported ok* batch, built from its RunReport by
/// frameworks::batch_totals. stage_busy_us is each stage's busy time summed
/// over the modeled cores (core-us), indexed by pipeline::TaskType order
/// (sampling, reindex, lookup, transfer).
struct BatchTotals {
  double end_to_end_us = 0.0;
  double makespan_us = 0.0;
  double stage_busy_us[4] = {0.0, 0.0, 0.0, 0.0};
  double fwp_us = 0.0;
  double bwp_us = 0.0;
};

/// One batch's end-to-end latency split into terms that add up to it:
/// stage_us (TaskType order) splits the makespan over S/R/K/T in
/// proportion to each stage's busy core-us (all 0 when nothing was busy),
/// and hidden_us = makespan + fwp + bwp - e2e. In a sharded run fwp + bwp
/// stay the serial kernel time while e2e prices the device group's
/// makespan, so hidden_us absorbs the difference too: it is signed, and
/// negative when collectives make the group slower than one device.
struct StageTerms {
  double stage_us[4] = {0.0, 0.0, 0.0, 0.0};
  double fwp_us = 0.0;
  double bwp_us = 0.0;
  double hidden_us = 0.0;
};

StageTerms stage_terms(const BatchTotals& totals);

/// Launch-shape signature: power-of-two bucket of the block count
/// ("b2^10" = blocks in [512, 1024), "b0" for synthetic charges with no
/// grid). Coarse on purpose — batch-to-batch sampling jitter must not
/// split one logical kernel class into hundreds of singleton keys.
std::string shape_signature(std::size_t blocks);

class KernelLedger {
 public:
  KernelLedger() = default;
  KernelLedger(const KernelLedger&) = delete;
  KernelLedger& operator=(const KernelLedger&) = delete;

  /// The process-wide ledger (leaked singleton, like Tracer/Metrics).
  static KernelLedger& global();

  /// Arm the ledger and remember where write_json_file() should dump.
  /// Resets any previous accumulation.
  void arm(std::string out_path);
  /// Disarm and drop the accumulation (the artifact should be written
  /// first; see GnnService's destructor / bench_util's ObsHook).
  void disarm();
  bool armed() const noexcept {
    return armed_.load(std::memory_order_relaxed);
  }
  std::string out_path() const;

  /// Drop all recorded data (armed state and out path survive).
  void clear();

  /// Record one ok batch: stage totals + the device's kernel profile.
  /// No-op while disarmed.
  void record_batch(const BatchTotals& totals,
                    const std::vector<KernelRecord>& kernels);

  /// Join one DKP sample against the model's prediction. `class_key`
  /// identifies the placement case (e.g. "fwd/aggregation-first/L0");
  /// `fitted` marks samples predicted by fitted coefficients — only those
  /// enter the residual distribution. No-op while disarmed.
  void record_prediction(const std::string& class_key, double predicted_us,
                         double measured_us, bool fitted);

  std::size_t batch_count() const;
  std::size_t kernel_class_count() const;

  /// Dump the schema-versioned kernels.json through obs::JsonWriter. Keys
  /// sorted, doubles as %.10g (a non-finite one as null) — byte-identical
  /// for identical accumulations.
  void write_json(std::ostream& os) const;
  bool write_json_file(const std::string& path) const;
  /// Write to the path given at arm() time; false when disarmed/IO error.
  bool write_json_file() const;

 private:
  struct KernelClass {
    std::string name, category, phase, shape;
    int device = -1;
    std::size_t blocks_min = 0, blocks_max = 0;
    std::uint64_t launches = 0;
    double total_us = 0.0;
    double flops = 0.0;         // doubles: JSON numbers, huge counts
    double global_bytes = 0.0;
  };
  struct CostClass {
    std::uint64_t samples = 0;
    std::uint64_t fitted_samples = 0;
    double predicted_us = 0.0;
    double measured_us = 0.0;
  };

  void reset();  // drop the accumulation; the caller holds mu_

  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;
  std::string out_path_;
  std::size_t batches_ = 0;
  double end_to_end_us_ = 0.0;  // across batches
  double makespan_us_ = 0.0;
  StageTerms terms_;            // sum of per-batch stage_terms()
  std::map<std::string, KernelClass, std::less<>> kernels_;
  std::map<std::string, CostClass, std::less<>> costmodel_;
  std::vector<double> residual_pcts_;  // fitted samples only
};

/// Drift threshold for the live costmodel.* surface, in percent: roughly
/// double the paper's reported 12.5% prediction error.
inline constexpr double kCostModelDriftPct = 25.0;

/// Publish the cost model's residual distribution to live telemetry:
/// costmodel.residual.p50 / costmodel.residual.p95 gauges every call, and
/// — when p95 crosses the drift threshold — a one-shot costmodel.drift
/// event + counter (latched until the residuals recover, so a drifting
/// model logs one event, not one per batch). Works with or without the
/// ledger armed; never touches trained or priced values.
void observe_costmodel_residuals(std::size_t samples, double p50_pct,
                                 double p95_pct);

}  // namespace gt::obs::attrib
