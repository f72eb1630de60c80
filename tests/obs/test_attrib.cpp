// KernelLedger + gt_explain attribution engine: aggregation, the exact
// sums-to-total identity, artifact round-trip, differential analysis, the
// CLI shim, and the live cost-model drift surface.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/attrib/explain.hpp"
#include "obs/attrib/kernel_ledger.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace gt::obs::attrib {
namespace {

/// One synthetic "batch" under overlap: busy = 200 core-us over a
/// makespan of 120, fwp+bwp = 70 fully hidden under preprocessing ->
/// e2e = 120.
BatchTotals overlap_batch() {
  BatchTotals t;
  t.stage_busy_us[0] = 100.0;  // sampling
  t.stage_busy_us[1] = 50.0;   // reindex
  t.stage_busy_us[2] = 30.0;   // lookup
  t.stage_busy_us[3] = 20.0;   // transfer
  t.makespan_us = 120.0;
  t.fwp_us = 40.0;
  t.bwp_us = 30.0;
  t.end_to_end_us = 120.0;  // max(makespan, gpu)
  return t;
}

std::vector<KernelRecord> overlap_kernels() {
  return {
      {"Pull.CsrSpmm", "aggregation", "fwd", 300, 25.0, 1000, 4096},
      {"Apply.MatMul", "combination", "fwd", 300, 15.0, 2000, 2048},
      {"Pull.CsrSpmmGrad", "aggregation", "bwd", 1024, 30.0, 1500, 8192},
  };
}

std::string temp_path(const char* tag) {
  return ::testing::TempDir() + "gt_attrib_" + tag + ".json";
}

class LedgerTest : public ::testing::Test {
 public:
  void TearDown() override {
    KernelLedger::global().disarm();
    for (const auto& p : cleanup_) std::remove(p.c_str());
  }
  std::string arm(const char* tag) {
    const std::string path = temp_path(tag);
    cleanup_.push_back(path);
    KernelLedger::global().arm(path);
    return path;
  }
  std::vector<std::string> cleanup_;
};

TEST(ShapeSignature, PowerOfTwoBuckets) {
  EXPECT_EQ(shape_signature(0), "b0");
  EXPECT_EQ(shape_signature(1), "b2^0");
  EXPECT_EQ(shape_signature(2), "b2^1");
  EXPECT_EQ(shape_signature(3), "b2^2");
  EXPECT_EQ(shape_signature(4), "b2^2");
  EXPECT_EQ(shape_signature(1024), "b2^10");
  EXPECT_EQ(shape_signature(1025), "b2^11");
}

TEST_F(LedgerTest, DisarmedRecordingIsANoOp) {
  KernelLedger& ledger = KernelLedger::global();
  ASSERT_FALSE(ledger.armed());
  ledger.record_batch(overlap_batch(), overlap_kernels());
  ledger.record_prediction("fwd/aggregation-first/L0", 10.0, 12.0, true);
  EXPECT_EQ(ledger.batch_count(), 0u);
  EXPECT_EQ(ledger.kernel_class_count(), 0u);
  EXPECT_FALSE(ledger.write_json_file());  // no out path while disarmed
}

TEST_F(LedgerTest, AggregatesKernelClassesAndKeepsIdentity) {
  arm("agg");
  KernelLedger& ledger = KernelLedger::global();
  ledger.record_batch(overlap_batch(), overlap_kernels());
  ledger.record_batch(overlap_batch(), overlap_kernels());
  EXPECT_EQ(ledger.batch_count(), 2u);
  EXPECT_EQ(ledger.kernel_class_count(), 3u);  // same classes both batches

  std::ostringstream os;
  ledger.write_json(os);
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(json_parse(os.str(), &doc, &err)) << err;
  EXPECT_EQ(doc.number_at("schema_version"), kKernelLedgerSchemaVersion);

  const JsonValue& totals = doc.at("totals");
  EXPECT_EQ(totals.number_at("batches"), 2.0);
  EXPECT_DOUBLE_EQ(totals.number_at("end_to_end_us"), 240.0);
  // Each batch splits its 120 us makespan 100:50:30:20 -> 60/30/18/12.
  EXPECT_DOUBLE_EQ(totals.number_at("sampling_us"), 120.0);
  EXPECT_DOUBLE_EQ(totals.number_at("transfer_us"), 24.0);
  EXPECT_DOUBLE_EQ(totals.number_at("overlap_hidden_us"), 140.0);
  // The identity: e2e = sum(stages) + fwp + bwp - hidden, and the stage
  // terms sum to the makespan.
  const double stages =
      totals.number_at("sampling_us") + totals.number_at("reindex_us") +
      totals.number_at("lookup_us") + totals.number_at("transfer_us");
  EXPECT_NEAR(stages, totals.number_at("makespan_us"), 1e-9);
  const double identity = stages + totals.number_at("fwp_us") +
                          totals.number_at("bwp_us") -
                          totals.number_at("overlap_hidden_us");
  EXPECT_NEAR(identity, totals.number_at("end_to_end_us"), 1e-9);

  const JsonValue& classes = doc.at("kernels");
  const JsonValue& spmm = classes.at("Pull.CsrSpmm|fwd|b2^9");
  ASSERT_TRUE(spmm.is_object());
  EXPECT_EQ(spmm.number_at("launches"), 2.0);
  EXPECT_DOUBLE_EQ(spmm.number_at("total_us"), 50.0);
  EXPECT_EQ(spmm.string_at("category"), "aggregation");
  EXPECT_EQ(classes.at("Pull.CsrSpmmGrad|bwd|b2^10").string_at("phase"),
            "bwd");
}

TEST_F(LedgerTest, OutputIsByteStable) {
  arm("stable");
  KernelLedger& ledger = KernelLedger::global();
  ledger.record_batch(overlap_batch(), overlap_kernels());
  ledger.record_prediction("fwd/aggregation-first/L0", 9.5, 10.0, true);
  std::ostringstream a, b;
  ledger.write_json(a);
  ledger.write_json(b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_FALSE(a.str().empty());
}

TEST_F(LedgerTest, PredictionJoinSeparatesFittedResiduals) {
  arm("join");
  KernelLedger& ledger = KernelLedger::global();
  // Pre-fit samples join the class sums but not the residual stream.
  ledger.record_prediction("fwd/aggregation-first/L0", 8.0, 10.0, false);
  ledger.record_prediction("fwd/aggregation-first/L0", 9.0, 10.0, true);
  ledger.record_prediction("fwd/aggregation-first/L0", 12.0, 10.0, true);

  std::ostringstream os;
  ledger.write_json(os);
  JsonValue doc;
  ASSERT_TRUE(json_parse(os.str(), &doc, nullptr));
  const JsonValue& cls =
      doc.at("costmodel").at("classes").at("fwd/aggregation-first/L0");
  EXPECT_EQ(cls.number_at("samples"), 3.0);
  EXPECT_EQ(cls.number_at("fitted_samples"), 2.0);
  EXPECT_DOUBLE_EQ(cls.number_at("predicted_us"), 29.0);
  EXPECT_DOUBLE_EQ(cls.number_at("measured_us"), 30.0);
  const JsonValue& residual = doc.at("costmodel").at("residual");
  EXPECT_EQ(residual.number_at("samples"), 2.0);
  // Fitted rel errors: 10% and 20% -> p50 = 10, p95 = 20, mean = 15.
  EXPECT_NEAR(residual.number_at("p50_pct"), 10.0, 1e-9);
  EXPECT_NEAR(residual.number_at("p95_pct"), 20.0, 1e-9);
  EXPECT_NEAR(residual.number_at("mean_pct"), 15.0, 1e-9);
}

TEST_F(LedgerTest, RearmingResetsTheAccumulation) {
  arm("first");
  KernelLedger::global().record_batch(overlap_batch(), overlap_kernels());
  EXPECT_EQ(KernelLedger::global().batch_count(), 1u);
  arm("second");
  EXPECT_EQ(KernelLedger::global().batch_count(), 0u);
  EXPECT_EQ(KernelLedger::global().kernel_class_count(), 0u);
}

// --- LedgerData / attribute ---------------------------------------------------

/// Write a ledger with `n` batches to a temp file and load it back.
LedgerData round_trip(LedgerTest& t, const char* tag, int n,
                      double fwd_scale = 1.0) {
  const std::string path = t.arm(tag);
  for (int i = 0; i < n; ++i) {
    BatchTotals b = overlap_batch();
    auto kernels = overlap_kernels();
    for (auto& k : kernels)
      if (k.phase == "fwd") k.latency_us *= fwd_scale;
    const double extra = 40.0 * (fwd_scale - 1.0);
    b.fwp_us += extra;  // keep per-phase sums exact...
    b.end_to_end_us = std::max(b.makespan_us, b.fwp_us + b.bwp_us);
    // ...and the identity: hidden = m + g - e2e (computed by the ledger).
    KernelLedger::global().record_batch(b, kernels);
  }
  EXPECT_TRUE(KernelLedger::global().write_json_file());
  KernelLedger::global().disarm();
  LedgerData data;
  std::string err;
  EXPECT_TRUE(LedgerData::load(path, &data, &err)) << err;
  return data;
}

// An integer field holding a hostile number fails the load with an error
// that names the field; it must never reach a float-to-integer cast, which
// is undefined behaviour out of range.
TEST_F(LedgerTest, LoadRejectsNonIntegralOrOutOfRangeCounts) {
  round_trip(*this, "hostile", 2);
  std::ifstream in(temp_path("hostile"));
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string good = buf.str();
  const std::string path = temp_path("hostile_edit");
  cleanup_.push_back(path);
  struct Field {
    const char* needle;  // the writer's text just before the value
    const char* name;    // what the error must mention
  };
  for (const Field f : {Field{"\"schema_version\": ", "schema_version"},
                        Field{"\"batches\": ", "totals.batches"},
                        Field{"\"residual\": {\"samples\": ",
                              "costmodel.residual.samples"}}) {
    for (const char* value : {"1e300", "-1", "1.5", "-5"}) {
      std::string doc = good;
      const std::size_t key = doc.find(f.needle);
      ASSERT_NE(key, std::string::npos) << f.needle;
      const std::size_t at = key + std::string(f.needle).size();
      doc.replace(at, doc.find_first_of(",}", at) - at, value);
      std::ofstream(path) << doc;
      LedgerData data;
      std::string err;
      EXPECT_FALSE(LedgerData::load(path, &data, &err))
          << f.name << " = " << value;
      EXPECT_NE(err.find(f.name), std::string::npos) << err;
    }
  }
}

TEST_F(LedgerTest, IdenticalRunsAttributeToZero) {
  const LedgerData base = round_trip(*this, "ident", 4);
  ASSERT_EQ(base.batches, 4u);
  const Attribution a = attribute(base, base);
  EXPECT_NEAR(a.delta_e2e_us, 0.0, 1e-9);
  EXPECT_NEAR(a.stage_delta_sum_us, 0.0, 1e-9);
  for (const StageDelta& s : a.stages) EXPECT_NEAR(s.delta_us, 0.0, 1e-9);
}

TEST_F(LedgerTest, AttributionSumsToMeasuredDeltaAndRanksCulprit) {
  // Baseline: gpu (70) hidden under makespan (120). Current: fwd kernels
  // 4x slower -> gpu = 190 dominates -> e2e 120 -> 190. Different batch
  // counts exercise the per-batch normalization.
  const LedgerData base = round_trip(*this, "b", 4);
  const LedgerData cur = round_trip(*this, "c", 2, /*fwd_scale=*/4.0);
  const Attribution a = attribute(base, cur);
  EXPECT_NEAR(a.base_e2e_us, 120.0, 1e-9);
  EXPECT_NEAR(a.cur_e2e_us, 190.0, 1e-9);
  EXPECT_NEAR(a.delta_e2e_us, 70.0, 1e-9);
  // The invariant the whole tool stands on: stage terms sum to the delta.
  EXPECT_NEAR(a.stage_delta_sum_us, a.delta_e2e_us, 1e-9);
  // Kernel deltas cover delta(fwp) + delta(bwp) = 120 - 0.
  EXPECT_NEAR(a.kernel_delta_sum_us, 120.0, 1e-9);
  // Largest mover first: Pull.CsrSpmm grew 25 -> 100.
  ASSERT_FALSE(a.kernels.empty());
  EXPECT_EQ(a.kernels.front().key, "Pull.CsrSpmm|fwd|b2^9");
  EXPECT_NEAR(a.kernels.front().delta_us, 75.0, 1e-9);

  // Text + JSON writers render without dying and carry the verdict.
  std::ostringstream text;
  write_text(a, text, 3);
  EXPECT_NE(text.str().find("Pull.CsrSpmm|fwd|b2^9"), std::string::npos);
  std::ostringstream js;
  write_json(a, js);
  JsonValue doc;
  ASSERT_TRUE(json_parse(js.str(), &doc, nullptr));
  EXPECT_NEAR(doc.at("end_to_end_us_per_batch").number_at("delta"), 70.0,
              1e-6);
}

TEST_F(LedgerTest, SelfTestPassesOnAConsistentArtifact) {
  const LedgerData base = round_trip(*this, "selftest", 3);
  std::ostringstream os;
  EXPECT_TRUE(run_self_test(base, os));
  EXPECT_NE(os.str().find("self-test PASSED"), std::string::npos);
  EXPECT_EQ(os.str().find("FAIL"), std::string::npos) << os.str();
}

TEST_F(LedgerTest, SelfTestRejectsInconsistentTotals) {
  LedgerData base = round_trip(*this, "broken", 3);
  base.fwp_us += 500.0;  // break the identity without touching e2e
  std::ostringstream os;
  EXPECT_FALSE(run_self_test(base, os));
  EXPECT_NE(os.str().find("self-test FAILED"), std::string::npos);
}

TEST_F(LedgerTest, GtExplainCliEndToEnd) {
  round_trip(*this, "cli_base", 4);
  round_trip(*this, "cli_cur", 2, /*fwd_scale=*/4.0);
  const std::string base_path = temp_path("cli_base");
  const std::string cur_path = temp_path("cli_cur");

  std::ostringstream out, err;
  EXPECT_EQ(run_gt_explain({base_path, cur_path}, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("Pull.CsrSpmm"), std::string::npos);

  out.str("");
  EXPECT_EQ(run_gt_explain({"--json", base_path, cur_path}, out, err), 0);
  JsonValue doc;
  ASSERT_TRUE(json_parse(out.str(), &doc, nullptr)) << out.str();
  EXPECT_FALSE(doc.at("kernels").as_array().empty());

  out.str("");
  EXPECT_EQ(run_gt_explain({"--self-test", base_path}, out, err), 0)
      << out.str();

  // Usage errors: wrong arity, unknown flag, unreadable file.
  EXPECT_EQ(run_gt_explain({base_path}, out, err), 2);
  EXPECT_EQ(run_gt_explain({"--nope", base_path, cur_path}, out, err), 2);
  EXPECT_EQ(run_gt_explain({"/nonexistent/a.json", cur_path}, out, err), 2);
}

// --- Live drift surface -------------------------------------------------------

TEST(CostModelDrift, GaugesAndRisingEdgeLatch) {
  metrics().gauge("costmodel.residual.p50").set(0.0);
  metrics().gauge("costmodel.residual.p95").set(0.0);
  const double threshold = kCostModelDriftPct;
  ASSERT_GT(threshold, 0.0);
  const std::uint64_t before = metrics().counter("costmodel.drift").value();

  // Below threshold: gauges move, no drift.
  observe_costmodel_residuals(10, 5.0, threshold * 0.5);
  EXPECT_DOUBLE_EQ(metrics().gauge("costmodel.residual.p50").value(), 5.0);
  EXPECT_DOUBLE_EQ(metrics().gauge("costmodel.residual.p95").value(),
                   threshold * 0.5);
  EXPECT_EQ(metrics().counter("costmodel.drift").value(), before);

  // Crossing: exactly one drift increment, latched while it stays high.
  observe_costmodel_residuals(10, 20.0, threshold * 2.0);
  observe_costmodel_residuals(10, 20.0, threshold * 3.0);
  EXPECT_EQ(metrics().counter("costmodel.drift").value(), before + 1);

  // Recovery resets the latch; the next excursion counts again.
  observe_costmodel_residuals(10, 5.0, threshold * 0.5);
  observe_costmodel_residuals(10, 20.0, threshold * 2.0);
  EXPECT_EQ(metrics().counter("costmodel.drift").value(), before + 2);

  // Zero samples: nothing changes.
  metrics().gauge("costmodel.residual.p95").set(1.0);
  observe_costmodel_residuals(0, 99.0, 99.0);
  EXPECT_DOUBLE_EQ(metrics().gauge("costmodel.residual.p95").value(), 1.0);
}

}  // namespace
}  // namespace gt::obs::attrib
