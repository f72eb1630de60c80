// Benchmark telemetry: structured paper-vs-measured rows plus run
// metadata, dumped as schema-versioned JSON (`BENCH_*.json`).
//
// The 15 figure/table binaries historically printed free-form text, so
// the repo had no machine-readable perf trajectory. BenchReporter is the
// process-wide registry those binaries (via bench_util's `claim()` /
// `header()` hooks) and the service CLI record into; one dump per run
// captures everything needed to regenerate a figure or gate a regression:
//
//   {
//     "figures": { "<figure>": "<description>", ... },
//     "meta": { binary, build_type, git_sha, iterations, threads },
//     "rows": [ { dataset, figure, framework, measured, metric,
//                 paper, unit }, ... ],
//     "schema_version": 1
//   }
//
// All keys are emitted in sorted order and rows in recording order, so
// two runs of a deterministic benchmark produce byte-identical files. The
// report, like bench_diff's --json verdict, is written through
// obs::JsonWriter: a NaN or infinite value prints as null and reads back
// as 0.
//
// The report holds no stage breakdown. The modeled (virtual-time) Fig 12
// split into S/R/K/T + FWP/BWP is the kernel ledger's `kernels.json`
// (obs/attrib/kernel_ledger.hpp), written next to the report when
// GT_KERNEL_LEDGER_OUT is set. The reader ignores top-level members it
// does not know, so reports from older versions, which carried a
// trace-derived analysis section, still load and gate.
//
// The same header declares the reading half (BenchReport::load) and the
// regression gate (diff_reports / run_bench_diff) used by both the
// tools/bench_diff CLI and the tests, so gate semantics live in exactly
// one place.
#pragma once

#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace gt::obs {

inline constexpr int kBenchReportSchemaVersion = 1;

/// One paper-vs-measured data point. `dataset`/`framework` are optional
/// tags ("" = aggregate row); (figure, metric, dataset, framework)
/// identifies a row across runs for diffing.
struct BenchRow {
  std::string figure;
  std::string metric;
  std::string dataset;
  std::string framework;
  std::string unit = "x";
  double paper = 0.0;
  double measured = 0.0;

  std::string key() const;
};

struct RunMeta {
  std::string binary;
  std::string git_sha;
  std::string build_type;
  int threads = 0;
  int iterations = 1;
};

class BenchReporter {
 public:
  BenchReporter();
  BenchReporter(const BenchReporter&) = delete;
  BenchReporter& operator=(const BenchReporter&) = delete;

  /// The process-wide reporter (leaked singleton, like Tracer/Metrics).
  static BenchReporter& global();

  /// Set the current figure context; subsequent rows recorded without an
  /// explicit figure inherit it. bench_util's header() calls this.
  void set_context(std::string figure, std::string description);
  std::string figure() const;

  /// Record one row; empty `row.figure` inherits the current context.
  void add_row(BenchRow row);
  /// Shorthand for the claim() path: context figure, no dataset tag.
  void add_claim(std::string metric, double paper, double measured,
                 std::string unit);

  void set_binary(std::string name);
  void set_iterations(int n);

  RunMeta meta() const;
  std::vector<BenchRow> rows() const;
  std::size_t row_count() const;

  /// Drop rows and figure contexts (meta survives). For tests.
  void clear();

  /// Write the report in the layout above.
  void write_json(std::ostream& os) const;
  /// Same, to a file. False on IO error.
  bool write_json_file(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  RunMeta meta_;
  std::string figure_;
  std::vector<std::pair<std::string, std::string>> figures_;  // + description
  std::vector<BenchRow> rows_;
};

/// Parsed form of a dumped report, for diffing.
struct BenchReport {
  int schema_version = 0;
  RunMeta meta;
  std::vector<BenchRow> rows;

  static bool from_json(const JsonValue& doc, BenchReport* out,
                        std::string* error = nullptr);
  static bool load(const std::string& path, BenchReport* out,
                   std::string* error = nullptr);
};

/// Per-row comparison outcome, ordered as in the baseline file.
struct RowDelta {
  enum class Status { kOk, kImproved, kRegressed, kMissing, kNew };
  Status status = Status::kOk;
  BenchRow baseline;  // zeroed for kNew
  BenchRow current;   // zeroed for kMissing
  /// |measured - paper| / |paper| when the row has a paper value, else the
  /// relative change of `measured` against the baseline run.
  double err_baseline = 0.0;
  double err_current = 0.0;
};

struct DiffResult {
  std::vector<RowDelta> deltas;
  bool regressed = false;  ///< any kRegressed or kMissing row
};

/// Compare two reports row by row.
///
/// A row regresses when its measured value moves *away from the paper
/// value* by more than `threshold` (relative to |paper|), or — for rows
/// without a paper target — when the measured value drifts more than
/// `threshold` relative to the baseline. Rows present in the baseline but
/// absent from the current run count as regressions (lost coverage); new
/// rows are informational.
DiffResult diff_reports(const BenchReport& baseline,
                        const BenchReport& current, double threshold);

/// Knobs behind tools/bench_diff beyond the two report paths.
struct BenchDiffOptions {
  double threshold = 0.05;
  /// Emit one machine-readable JSON document instead of the text table
  /// (schema_version, threshold, verdict, counts, rows; the exit code is
  /// unchanged).
  bool json = false;
  /// On a regression verdict, attribute it: diff the two runs' kernel
  /// ledgers (see obs/attrib) and print the top-N kernel classes by
  /// movement under the FAIL line. 0 disables.
  std::size_t top_kernels = 3;
  /// Explicit kernels.json paths for the attribution; when empty, a
  /// sibling "kernels.json" next to each bench report is tried.
  std::string baseline_kernels;
  std::string current_kernels;
};

/// Full CLI behavior behind tools/bench_diff: load both files, print the
/// delta table (or JSON) to `os`, return the process exit code (0 = no
/// regression, 1 = regression past threshold, 2 = unreadable input or
/// incomplete comparison).
int run_bench_diff(const std::string& baseline_path,
                   const std::string& current_path,
                   const BenchDiffOptions& options, std::ostream& os);

}  // namespace gt::obs
