#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/attrib/kernel_ledger.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"

namespace gt::obs {
namespace {

BenchRow make_row(const std::string& metric, double paper, double measured) {
  BenchRow r;
  r.figure = "Fig T";
  r.metric = metric;
  r.dataset = "products";
  r.paper = paper;
  r.measured = measured;
  return r;
}

BenchReport make_report(std::vector<BenchRow> rows) {
  BenchReport rep;
  rep.schema_version = kBenchReportSchemaVersion;
  rep.meta.binary = "unit_test";
  rep.rows = std::move(rows);
  return rep;
}

TEST(DiffReports, IdenticalReportsAreClean) {
  auto rep = make_report({make_row("a", 2.0, 1.9), make_row("b", 0.0, 5.0)});
  const DiffResult d = diff_reports(rep, rep, 0.05);
  EXPECT_FALSE(d.regressed);
  ASSERT_EQ(d.deltas.size(), 2u);
  for (const auto& delta : d.deltas)
    EXPECT_EQ(delta.status, RowDelta::Status::kOk);
}

TEST(DiffReports, MovingAwayFromPaperTargetRegresses) {
  // Paper target 2.0: baseline measured 1.9 (5% off), current 1.7 (15%
  // off) — deviation grew by 10% of the target, past a 5% threshold.
  auto base = make_report({make_row("a", 2.0, 1.9)});
  auto cur = make_report({make_row("a", 2.0, 1.7)});
  const DiffResult d = diff_reports(base, cur, 0.05);
  EXPECT_TRUE(d.regressed);
  ASSERT_EQ(d.deltas.size(), 1u);
  EXPECT_EQ(d.deltas[0].status, RowDelta::Status::kRegressed);
  EXPECT_NEAR(d.deltas[0].err_baseline, 0.05, 1e-9);
  EXPECT_NEAR(d.deltas[0].err_current, 0.15, 1e-9);
}

TEST(DiffReports, MovingTowardPaperTargetImproves) {
  auto base = make_report({make_row("a", 2.0, 1.6)});
  auto cur = make_report({make_row("a", 2.0, 1.95)});
  const DiffResult d = diff_reports(base, cur, 0.05);
  EXPECT_FALSE(d.regressed);
  EXPECT_EQ(d.deltas[0].status, RowDelta::Status::kImproved);
}

TEST(DiffReports, PaperlessRowGatesOnDriftFromBaseline) {
  auto base = make_report({make_row("a", 0.0, 100.0)});
  EXPECT_FALSE(
      diff_reports(base, make_report({make_row("a", 0.0, 104.0)}), 0.05)
          .regressed);  // 4% drift, under threshold
  EXPECT_TRUE(
      diff_reports(base, make_report({make_row("a", 0.0, 106.0)}), 0.05)
          .regressed);  // 6% drift
}

TEST(DiffReports, MissingRowRegressesNewRowDoesNot) {
  auto base = make_report({make_row("a", 1.0, 1.0), make_row("b", 1.0, 1.0)});
  auto cur = make_report({make_row("a", 1.0, 1.0), make_row("c", 1.0, 1.0)});
  const DiffResult d = diff_reports(base, cur, 0.05);
  EXPECT_TRUE(d.regressed);
  ASSERT_EQ(d.deltas.size(), 3u);  // a (ok), b (missing), c (new)
  EXPECT_EQ(d.deltas[0].status, RowDelta::Status::kOk);
  EXPECT_EQ(d.deltas[1].status, RowDelta::Status::kMissing);
  EXPECT_EQ(d.deltas[2].status, RowDelta::Status::kNew);
}

// run_bench_diff: full CLI behavior including file IO and exit codes.
class BenchDiffCli : public ::testing::Test {
 protected:
  std::string write_report(const char* tag, const BenchReporter& r) {
    std::string path = ::testing::TempDir() + "gt_bench_diff_" + tag +
                       ".json";
    std::ofstream os(path);
    r.write_json(os);
    os << "\n";
    return path;
  }
  void TearDown() override {
    for (const auto& p : cleanup_) std::remove(p.c_str());
  }
  std::vector<std::string> cleanup_;
};

TEST_F(BenchDiffCli, ExitCodesForCleanRegressedAndUnreadable) {
  BenchReporter& r = BenchReporter::global();
  r.clear();
  r.set_context("Fig T", "cli test");
  r.add_row(make_row("a", 2.0, 1.9));
  const std::string base = write_report("base", r);
  cleanup_.push_back(base);

  r.clear();
  r.set_context("Fig T", "cli test");
  r.add_row(make_row("a", 2.0, 1.9));
  const std::string same = write_report("same", r);
  cleanup_.push_back(same);

  r.clear();
  r.set_context("Fig T", "cli test");
  r.add_row(make_row("a", 2.0, 1.0));
  const std::string bad = write_report("bad", r);
  cleanup_.push_back(bad);
  r.clear();

  std::ostringstream out;
  EXPECT_EQ(run_bench_diff(base, same, BenchDiffOptions{}, out), 0);
  EXPECT_NE(out.str().find("OK"), std::string::npos);

  out.str("");
  EXPECT_EQ(run_bench_diff(base, bad, BenchDiffOptions{}, out), 1);
  EXPECT_NE(out.str().find("regress"), std::string::npos);

  out.str("");
  EXPECT_EQ(
      run_bench_diff(base, "/nonexistent/nope.json", BenchDiffOptions{}, out),
      2);
}

TEST_F(BenchDiffCli, MissingBaselineRowIsIncompleteNotRegressed) {
  BenchReporter& r = BenchReporter::global();
  r.clear();
  r.set_context("Fig T", "cli test");
  r.add_row(make_row("a", 2.0, 1.9));
  r.add_row(make_row("b", 3.0, 2.9));
  const std::string base = write_report("missing_base", r);
  cleanup_.push_back(base);

  r.clear();
  r.set_context("Fig T", "cli test");
  r.add_row(make_row("a", 2.0, 1.9));  // row "b" vanished from the candidate
  const std::string cur = write_report("missing_cur", r);
  cleanup_.push_back(cur);
  r.clear();

  // A comparison that never happened must not masquerade as a measured
  // regression (1) or a clean pass (0): it exits 2 with a per-row
  // diagnostic naming the vanished baseline row.
  std::ostringstream out;
  EXPECT_EQ(run_bench_diff(base, cur, BenchDiffOptions{}, out), 2);
  EXPECT_NE(out.str().find("is missing from"), std::string::npos);
  EXPECT_NE(out.str().find(cur), std::string::npos);
  EXPECT_NE(out.str().find("comparison incomplete"), std::string::npos);

  // The missing check outranks any regression verdict: a candidate that
  // both regresses and lost a row still reports incomplete.
  r.clear();
  r.set_context("Fig T", "cli test");
  r.add_row(make_row("a", 2.0, 1.0));  // regressed AND "b" missing
  const std::string worse = write_report("missing_worse", r);
  cleanup_.push_back(worse);
  r.clear();
  out.str("");
  EXPECT_EQ(run_bench_diff(base, worse, BenchDiffOptions{}, out), 2);
}

// --- --json + kernel attribution ---------------------------------------------

/// Write a one-batch kernels.json whose single fwd class costs
/// 40*scale us; scale > 1 models a kernel-level slowdown.
std::string write_kernels(const char* tag, double scale) {
  const std::string path =
      ::testing::TempDir() + "gt_bench_diff_kernels_" + tag + ".json";
  attrib::KernelLedger& ledger = attrib::KernelLedger::global();
  ledger.arm(path);
  attrib::BatchTotals t;
  t.stage_busy_us[0] = 100.0;
  t.stage_busy_us[1] = 50.0;
  t.stage_busy_us[2] = 30.0;
  t.stage_busy_us[3] = 20.0;
  t.makespan_us = 120.0;
  t.fwp_us = 40.0 * scale;
  t.bwp_us = 30.0;
  t.end_to_end_us = std::max(t.makespan_us, t.fwp_us + t.bwp_us);
  const std::vector<attrib::KernelRecord> kernels = {
      {"Pull.CsrSpmm", "aggregation", "fwd", 300, 40.0 * scale, 1000, 4096},
      {"Loss.Softmax", "softmax", "bwd", 300, 30.0, 500, 2048},
  };
  ledger.record_batch(t, kernels);
  EXPECT_TRUE(ledger.write_json_file());
  ledger.disarm();
  return path;
}

TEST_F(BenchDiffCli, JsonOutputCarriesVerdictRowsAndExitCodes) {
  BenchReporter& r = BenchReporter::global();
  r.clear();
  r.set_context("Fig T", "cli test");
  r.add_row(make_row("a", 2.0, 1.9));
  const std::string base = write_report("json_base", r);
  cleanup_.push_back(base);

  r.clear();
  r.set_context("Fig T", "cli test");
  r.add_row(make_row("a", 2.0, 1.0));
  const std::string bad = write_report("json_bad", r);
  cleanup_.push_back(bad);
  r.clear();

  BenchDiffOptions opt;
  opt.json = true;

  // Clean pair: exit 0, verdict "ok", one comparable row, no attribution.
  std::ostringstream out;
  EXPECT_EQ(run_bench_diff(base, base, opt, out), 0);
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(json_parse(out.str(), &doc, &err)) << err << "\n" << out.str();
  EXPECT_EQ(doc.string_at("verdict"), "ok");
  EXPECT_EQ(doc.at("rows").as_array().size(), 1u);
  EXPECT_TRUE(doc.at("kernel_attribution").as_array().empty());

  // Regressed pair: exit 1, verdict "regressed", same document shape.
  out.str("");
  EXPECT_EQ(run_bench_diff(base, bad, opt, out), 1);
  ASSERT_TRUE(json_parse(out.str(), &doc, &err)) << err << "\n" << out.str();
  EXPECT_EQ(doc.string_at("verdict"), "regressed");
  ASSERT_EQ(doc.at("rows").as_array().size(), 1u);
  EXPECT_EQ(doc.at("rows").as_array()[0].string_at("status"), "REGRESSED");

  // Unreadable input: exit 2 (no JSON document contract on that path).
  out.str("");
  EXPECT_EQ(run_bench_diff(base, "/nonexistent/nope.json", opt, out), 2);
}

TEST_F(BenchDiffCli, RegressionWithLedgersPrintsTopKernelAttribution) {
  BenchReporter& r = BenchReporter::global();
  r.clear();
  r.set_context("Fig T", "cli test");
  r.add_row(make_row("a", 2.0, 1.9));
  const std::string base = write_report("attr_base", r);
  cleanup_.push_back(base);

  r.clear();
  r.set_context("Fig T", "cli test");
  r.add_row(make_row("a", 2.0, 1.0));
  const std::string bad = write_report("attr_bad", r);
  cleanup_.push_back(bad);
  r.clear();

  BenchDiffOptions opt;
  opt.baseline_kernels = write_kernels("attr_base", 1.0);
  opt.current_kernels = write_kernels("attr_cur", 2.0);
  cleanup_.push_back(opt.baseline_kernels);
  cleanup_.push_back(opt.current_kernels);

  // Text verdict: FAIL line plus the ranked culprit and the gt_explain
  // pointer for the full breakdown.
  std::ostringstream out;
  EXPECT_EQ(run_bench_diff(base, bad, opt, out), 1);
  EXPECT_NE(out.str().find("kernel-level attribution"), std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("Pull.CsrSpmm|fwd|b2^9"), std::string::npos);
  EXPECT_NE(out.str().find("gt_explain"), std::string::npos);

  // JSON carries the same ranked classes under "kernel_attribution".
  opt.json = true;
  out.str("");
  EXPECT_EQ(run_bench_diff(base, bad, opt, out), 1);
  JsonValue doc;
  ASSERT_TRUE(json_parse(out.str(), &doc, nullptr)) << out.str();
  const JsonArray& attr = doc.at("kernel_attribution").as_array();
  ASSERT_FALSE(attr.empty());
  EXPECT_EQ(attr[0].string_at("key"), "Pull.CsrSpmm|fwd|b2^9");
  EXPECT_NEAR(attr[0].number_at("delta_us_per_batch"), 40.0, 1e-6);

  // --top=0 disables the attribution entirely.
  opt.json = false;
  opt.top_kernels = 0;
  out.str("");
  EXPECT_EQ(run_bench_diff(base, bad, opt, out), 1);
  EXPECT_EQ(out.str().find("kernel-level attribution"), std::string::npos);
}

TEST_F(BenchDiffCli, RegressionWithoutLedgersExplainsWhatIsMissing) {
  BenchReporter& r = BenchReporter::global();
  r.clear();
  r.set_context("Fig T", "cli test");
  r.add_row(make_row("a", 2.0, 1.9));
  const std::string base = write_report("noledger_base", r);
  cleanup_.push_back(base);

  r.clear();
  r.set_context("Fig T", "cli test");
  r.add_row(make_row("a", 2.0, 1.0));
  const std::string bad = write_report("noledger_bad", r);
  cleanup_.push_back(bad);
  r.clear();

  std::ostringstream out;
  EXPECT_EQ(run_bench_diff(base, bad, BenchDiffOptions{}, out), 1);
  EXPECT_NE(out.str().find("no kernel attribution available"),
            std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("GT_KERNEL_LEDGER_OUT"), std::string::npos);
}

}  // namespace
}  // namespace gt::obs
