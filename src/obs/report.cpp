#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <thread>

#include "obs/attrib/explain.hpp"
#include "obs/json.hpp"
#include "util/table.hpp"

#if defined(__GLIBC__)
#include <errno.h>  // program_invocation_short_name
#endif

namespace gt::obs {

namespace {

// Separator that cannot appear in row fields (the JSON writer escapes it).
constexpr char kKeySep = '\x1f';

std::string default_binary_name() {
#if defined(__GLIBC__)
  if (program_invocation_short_name != nullptr)
    return program_invocation_short_name;
#endif
  return "unknown";
}

std::string default_git_sha() {
  // CI can pin the exact sha at runtime; otherwise use the configure-time
  // value baked in by CMake (stale only until the next reconfigure).
  if (const char* env = std::getenv("GT_GIT_SHA")) return env;
#ifdef GT_GIT_SHA
  return GT_GIT_SHA;
#else
  return "unknown";
#endif
}

std::string default_build_type() {
#ifdef GT_BUILD_TYPE
  return GT_BUILD_TYPE;
#else
  return "unknown";
#endif
}

}  // namespace

std::string BenchRow::key() const {
  std::string k = figure;
  k += kKeySep;
  k += metric;
  k += kKeySep;
  k += dataset;
  k += kKeySep;
  k += framework;
  return k;
}

// ---- BenchReporter ----------------------------------------------------------

BenchReporter::BenchReporter() {
  meta_.binary = default_binary_name();
  meta_.git_sha = default_git_sha();
  meta_.build_type = default_build_type();
  meta_.threads =
      static_cast<int>(std::thread::hardware_concurrency());
}

BenchReporter& BenchReporter::global() {
  // Leaked: the bench ObsHook dumps from a static destructor.
  static BenchReporter* r = new BenchReporter();
  return *r;
}

void BenchReporter::set_context(std::string figure, std::string description) {
  std::lock_guard lock(mu_);
  figure_ = figure;
  for (auto& [fig, desc] : figures_)
    if (fig == figure) {
      desc = std::move(description);
      return;
    }
  figures_.emplace_back(std::move(figure), std::move(description));
}

std::string BenchReporter::figure() const {
  std::lock_guard lock(mu_);
  return figure_;
}

void BenchReporter::add_row(BenchRow row) {
  std::lock_guard lock(mu_);
  if (row.figure.empty()) row.figure = figure_;
  rows_.push_back(std::move(row));
}

void BenchReporter::add_claim(std::string metric, double paper,
                              double measured, std::string unit) {
  BenchRow row;
  row.metric = std::move(metric);
  row.unit = std::move(unit);
  row.paper = paper;
  row.measured = measured;
  add_row(std::move(row));
}

void BenchReporter::set_binary(std::string name) {
  std::lock_guard lock(mu_);
  meta_.binary = std::move(name);
}

void BenchReporter::set_iterations(int n) {
  std::lock_guard lock(mu_);
  meta_.iterations = n;
}

RunMeta BenchReporter::meta() const {
  std::lock_guard lock(mu_);
  return meta_;
}

std::vector<BenchRow> BenchReporter::rows() const {
  std::lock_guard lock(mu_);
  return rows_;
}

std::size_t BenchReporter::row_count() const {
  std::lock_guard lock(mu_);
  return rows_.size();
}

void BenchReporter::clear() {
  std::lock_guard lock(mu_);
  rows_.clear();
  figures_.clear();
  figure_.clear();
}

void BenchReporter::write_json(std::ostream& os) const {
  std::lock_guard lock(mu_);
  // Figures sorted by name for byte-stable output (recording order is a
  // run-time detail; rows keep it because it mirrors the printed tables).
  std::map<std::string, std::string, std::less<>> figs(figures_.begin(),
                                                       figures_.end());
  JsonWriter w;
  w.object().key("figures").object();
  for (const auto& [fig, desc] : figs) w.member(fig, desc);
  w.end().key("meta").object().member("binary", meta_.binary);
  w.member("build_type", meta_.build_type).member("git_sha", meta_.git_sha);
  w.member("iterations", meta_.iterations).member("threads", meta_.threads);
  w.end().key("rows").array();
  for (const BenchRow& r : rows_) {
    w.object(JsonWriter::kInline).member("dataset", r.dataset);
    w.member("figure", r.figure).member("framework", r.framework);
    w.member("measured", r.measured).member("metric", r.metric);
    w.member("paper", r.paper).member("unit", r.unit).end();
  }
  w.end().member("schema_version", kBenchReportSchemaVersion);
  w.end().flush(os);
}

bool BenchReporter::write_json_file(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  write_json(f);
  return static_cast<bool>(f);
}

// ---- BenchReport (reader) ---------------------------------------------------

bool BenchReport::from_json(const JsonValue& doc, BenchReport* out,
                            std::string* error) {
  *out = BenchReport{};
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (!doc.is_object()) return fail("report is not a JSON object");
  const std::optional<int> version = doc.int_at<int>("schema_version");
  if (!version) return fail("schema_version is not an integer");
  out->schema_version = *version;
  if (out->schema_version != kBenchReportSchemaVersion)
    return fail("unsupported schema_version " +
                std::to_string(out->schema_version));
  const JsonValue& meta = doc.at("meta");
  out->meta.binary = meta.string_at("binary");
  out->meta.git_sha = meta.string_at("git_sha");
  out->meta.build_type = meta.string_at("build_type");
  const std::optional<int> threads = meta.int_at<int>("threads", 0);
  if (!threads) return fail("meta.threads is not a non-negative integer");
  out->meta.threads = *threads;
  const std::optional<int> iterations = meta.int_at<int>("iterations", 0);
  if (!iterations)
    return fail("meta.iterations is not a non-negative integer");
  out->meta.iterations = *iterations;
  const JsonArray& rows = doc.at("rows").as_array();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const JsonValue& r = rows[i];
    BenchRow row;
    row.figure = r.string_at("figure");
    row.metric = r.string_at("metric");
    row.dataset = r.string_at("dataset");
    row.framework = r.string_at("framework");
    row.unit = r.string_at("unit");
    // A string or an array where a number belongs fails the load.
    const std::optional<double> paper = r.double_at("paper");
    const std::optional<double> measured = r.double_at("measured");
    if (!paper || !measured)
      return fail("rows[" + std::to_string(i) + "]." +
                  (paper ? "measured" : "paper") + " is not a number");
    row.paper = *paper;
    row.measured = *measured;
    out->rows.push_back(std::move(row));
  }
  return true;
}

bool BenchReport::load(const std::string& path, BenchReport* out,
                       std::string* error) {
  JsonValue doc;
  if (!json_parse_file(path, &doc, error)) return false;
  return from_json(doc, out, error);
}

// ---- Diff / regression gate -------------------------------------------------

namespace {

constexpr double kEps = 1e-12;

/// Deviation score whose growth defines a regression: distance from the
/// paper target when one exists, otherwise distance from the baseline run.
double rel_error(double measured, double reference) {
  return std::abs(measured - reference) / std::max(std::abs(reference), kEps);
}

}  // namespace

DiffResult diff_reports(const BenchReport& baseline,
                        const BenchReport& current, double threshold) {
  DiffResult out;
  std::map<std::string, const BenchRow*, std::less<>> cur_by_key;
  for (const BenchRow& r : current.rows) cur_by_key[r.key()] = &r;

  std::map<std::string, bool, std::less<>> matched;
  for (const BenchRow& base : baseline.rows) {
    RowDelta d;
    d.baseline = base;
    const auto it = cur_by_key.find(base.key());
    if (it == cur_by_key.end()) {
      d.status = RowDelta::Status::kMissing;
      out.regressed = true;
      out.deltas.push_back(std::move(d));
      continue;
    }
    matched[base.key()] = true;
    d.current = *it->second;
    if (std::abs(base.paper) > kEps) {
      d.err_baseline = rel_error(base.measured, base.paper);
      d.err_current = rel_error(d.current.measured, d.current.paper);
      if (d.err_current > d.err_baseline + threshold)
        d.status = RowDelta::Status::kRegressed;
      else if (d.err_current < d.err_baseline - threshold)
        d.status = RowDelta::Status::kImproved;
    } else {
      // No paper target: any drift past the threshold is suspect because
      // every bench is deterministic by construction.
      d.err_current = rel_error(d.current.measured, base.measured);
      if (d.err_current > threshold) d.status = RowDelta::Status::kRegressed;
    }
    if (d.status == RowDelta::Status::kRegressed) out.regressed = true;
    out.deltas.push_back(std::move(d));
  }
  for (const BenchRow& cur : current.rows) {
    if (matched.contains(cur.key())) continue;
    RowDelta d;
    d.status = RowDelta::Status::kNew;
    d.current = cur;
    out.deltas.push_back(std::move(d));
  }
  return out;
}

namespace {

const char* status_name(RowDelta::Status s) {
  switch (s) {
    case RowDelta::Status::kOk: return "ok";
    case RowDelta::Status::kImproved: return "improved";
    case RowDelta::Status::kRegressed: return "REGRESSED";
    case RowDelta::Status::kMissing: return "MISSING";
    case RowDelta::Status::kNew: return "new";
  }
  return "?";
}

std::string row_label(const BenchRow& r) {
  std::string label = r.figure.empty() ? "?" : r.figure;
  label += " | " + r.metric;
  if (!r.dataset.empty()) label += " [" + r.dataset + "]";
  if (!r.framework.empty()) label += " (" + r.framework + ")";
  return label;
}

/// "dir/report.json" -> "dir/kernels.json": the default artifact layout
/// when a run arms GT_KERNEL_LEDGER_OUT next to GT_BENCH_OUT.
std::string sibling_kernels_path(const std::string& report_path) {
  const std::size_t slash = report_path.find_last_of('/');
  if (slash == std::string::npos) return "kernels.json";
  return report_path.substr(0, slash + 1) + "kernels.json";
}

/// Try to load both runs' kernel ledgers for root-cause attribution.
/// False (with a human-readable reason) when either artifact is absent.
bool load_attribution(const BenchDiffOptions& opt,
                      const std::string& baseline_path,
                      const std::string& current_path,
                      attrib::Attribution* out, std::string* base_kernels,
                      std::string* cur_kernels, std::string* why_not) {
  *base_kernels = opt.baseline_kernels.empty()
                      ? sibling_kernels_path(baseline_path)
                      : opt.baseline_kernels;
  *cur_kernels = opt.current_kernels.empty()
                     ? sibling_kernels_path(current_path)
                     : opt.current_kernels;
  attrib::LedgerData base, cur;
  if (!attrib::LedgerData::load(*base_kernels, &base, why_not)) return false;
  if (!attrib::LedgerData::load(*cur_kernels, &cur, why_not)) return false;
  *out = attrib::attribute(base, cur);
  return true;
}

void write_json_row(JsonWriter& w, const RowDelta& d) {
  const BenchRow& named =
      d.status == RowDelta::Status::kNew ? d.current : d.baseline;
  w.object(JsonWriter::kInline).member("status", status_name(d.status));
  w.member("figure", named.figure).member("metric", named.metric);
  w.member("dataset", named.dataset).member("framework", named.framework);
  w.member("unit", named.unit).member("paper", named.paper);
  w.member("measured_baseline", d.baseline.measured);
  w.member("measured_current", d.current.measured);
  w.member("err_baseline", d.err_baseline);
  w.member("err_current", d.err_current).end();
}

}  // namespace

int run_bench_diff(const std::string& baseline_path,
                   const std::string& current_path,
                   const BenchDiffOptions& opt, std::ostream& os) {
  std::string error;
  BenchReport baseline, current;
  if (!BenchReport::load(baseline_path, &baseline, &error)) {
    os << "bench_diff: " << baseline_path << ": " << error << "\n";
    return 2;
  }
  if (!BenchReport::load(current_path, &current, &error)) {
    os << "bench_diff: " << current_path << ": " << error << "\n";
    return 2;
  }

  const DiffResult diff = diff_reports(baseline, current, opt.threshold);
  std::size_t regressed = 0, missing = 0, improved = 0, fresh = 0;
  for (const RowDelta& d : diff.deltas) {
    regressed += d.status == RowDelta::Status::kRegressed;
    missing += d.status == RowDelta::Status::kMissing;
    improved += d.status == RowDelta::Status::kImproved;
    fresh += d.status == RowDelta::Status::kNew;
  }
  // A baseline row absent from the candidate is not a measured regression
  // — it means the comparison never happened (renamed metric, bench that
  // stopped emitting, truncated report), so the verdict is "incomplete"
  // and the exit code matches the unreadable-input case: CI fails loudly
  // instead of reporting a pass/fail over a partial comparison.
  const int exit_code = missing > 0 ? 2 : (diff.regressed ? 1 : 0);
  const char* verdict =
      missing > 0 ? "incomplete" : (diff.regressed ? "regressed" : "ok");

  // Root-cause attribution for a real regression verdict: diff the two
  // runs' kernel ledgers when both exist.
  attrib::Attribution attribution;
  std::string base_kernels, cur_kernels, attr_why_not;
  const bool have_attribution =
      exit_code == 1 && opt.top_kernels > 0 &&
      load_attribution(opt, baseline_path, current_path, &attribution,
                       &base_kernels, &cur_kernels, &attr_why_not);

  if (opt.json) {
    JsonWriter w;
    w.object().member("schema_version", 1);
    w.member("threshold", opt.threshold).member("verdict", verdict);
    w.key("baseline").object(JsonWriter::kInline);
    w.member("path", baseline_path).member("git_sha", baseline.meta.git_sha);
    w.end().key("current").object(JsonWriter::kInline);
    w.member("path", current_path).member("git_sha", current.meta.git_sha);
    w.end().key("counts").object(JsonWriter::kInline);
    w.member("compared", diff.deltas.size()).member("regressed", regressed);
    w.member("missing", missing).member("improved", improved);
    w.member("new", fresh).end().key("rows").array();
    for (const RowDelta& d : diff.deltas) write_json_row(w, d);
    w.end().key("kernel_attribution").array();
    if (have_attribution) {
      std::size_t shown = 0;
      for (const attrib::KernelDelta& k : attribution.kernels) {
        if (shown >= opt.top_kernels || k.delta_us == 0.0) break;
        ++shown;
        w.object(JsonWriter::kInline).member("key", k.key);
        w.member("phase", k.phase);
        w.member("delta_us_per_batch", k.delta_us).end();
      }
    }
    w.end().end().flush(os);
    return exit_code;
  }

  os << "bench_diff: " << baseline_path << " (" << baseline.meta.git_sha
     << ") vs " << current_path << " (" << current.meta.git_sha
     << "), threshold " << opt.threshold << "\n\n";

  Table table({"status", "row", "unit", "paper", "measured old", "measured new",
               "err old", "err new"});
  for (const RowDelta& d : diff.deltas) {
    const BenchRow& named =
        d.status == RowDelta::Status::kNew ? d.current : d.baseline;
    table.add_row(
        {status_name(d.status), row_label(named), named.unit,
         Table::fmt(named.paper, 3),
         d.status == RowDelta::Status::kNew ? "-"
                                            : Table::fmt(d.baseline.measured, 3),
         d.status == RowDelta::Status::kMissing
             ? "-"
             : Table::fmt(d.current.measured, 3),
         Table::fmt_pct(d.err_baseline), Table::fmt_pct(d.err_current)});
  }
  os << table.to_string();

  os << "\n" << diff.deltas.size() << " rows compared: " << regressed
     << " regressed, " << missing << " missing\n";
  if (missing > 0) {
    for (const RowDelta& d : diff.deltas) {
      if (d.status != RowDelta::Status::kMissing) continue;
      os << "bench_diff: baseline row '" << row_label(d.baseline)
         << "' (key " << d.baseline.key() << ") is missing from "
         << current_path << "\n";
    }
    os << "bench_diff: FAIL (comparison incomplete: " << missing
       << " baseline row" << (missing == 1 ? "" : "s")
       << " missing from candidate)\n";
    return 2;
  }
  if (diff.regressed) {
    os << "bench_diff: FAIL (regression beyond threshold)\n";
    if (have_attribution) {
      os << "\nkernel-level attribution (per-batch, " << base_kernels
         << " vs " << cur_kernels << "):\n";
      attrib::write_top_kernels(attribution, os, opt.top_kernels);
      os << "  (full breakdown: tools/gt_explain " << base_kernels << " "
         << cur_kernels << ")\n";
    } else if (opt.top_kernels > 0) {
      os << "bench_diff: no kernel attribution available (" << attr_why_not
         << "); arm GT_KERNEL_LEDGER_OUT on both runs to root-cause "
            "regressions with tools/gt_explain\n";
    }
    return 1;
  }
  os << "bench_diff: OK\n";
  return 0;
}

}  // namespace gt::obs
