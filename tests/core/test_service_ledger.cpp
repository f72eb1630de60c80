// Kernel-ledger integration at the service level: an armed run must leave
// one kernels.json whose totals satisfy the attribution identity and whose
// per-phase kernel sums reconcile with the batch reports — and arming must
// not change a single trained or priced value.
#include "core/graphtensor.hpp"

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "fault/harness.hpp"
#include "obs/attrib/explain.hpp"
#include "obs/attrib/kernel_ledger.hpp"
#include "obs/json.hpp"

namespace gt {
namespace {

ServiceOptions base_options() {
  ServiceOptions opt;
  opt.framework = "Prepro-GT";
  opt.batch_size = 48;
  return opt;
}

GnnService make_service(ServiceOptions opt) {
  return GnnService(generate("products", 3), models::gcn(8, 47), opt);
}

std::string fresh_path(const char* tag) {
  const std::string path =
      ::testing::TempDir() + "gt_svc_ledger_" + tag + ".json";
  std::filesystem::remove(path);
  return path;
}

// %.10g serialization round-trips sums to ~1e-9 relative; 1e-6 leaves
// headroom without hiding a real accounting bug.
void expect_near_rel(double actual, double expect, double rel_tol,
                     const char* what) {
  const double tol = rel_tol * std::max(std::abs(expect), 1.0);
  EXPECT_NEAR(actual, expect, tol) << what;
}

TEST(ServiceLedger, WritesConsistentArtifactOnDestruction) {
#ifdef GT_OBS_DISABLE
  GTEST_SKIP() << "GT_OBS_DISABLE compiles the kernel ledger's arming away";
#endif
  const std::string path = fresh_path("artifact");
  ServiceOptions opt = base_options();
  opt.kernel_ledger_out = path;

  std::vector<frameworks::RunReport> reports;
  {
    GnnService service = make_service(opt);
    EXPECT_TRUE(obs::attrib::KernelLedger::global().armed());
    reports = service.train_batches(5);
    ASSERT_EQ(reports.size(), 5u);
    // Destruction writes the artifact and disarms the process ledger.
  }
  EXPECT_FALSE(obs::attrib::KernelLedger::global().armed());
  ASSERT_TRUE(std::filesystem::exists(path));

  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::json_parse_file(path, &doc, &err)) << err;
  EXPECT_EQ(static_cast<int>(doc.number_at("schema_version")),
            obs::attrib::kKernelLedgerSchemaVersion);

  const obs::JsonValue& totals = doc.at("totals");
  ASSERT_TRUE(totals.is_object());
  EXPECT_EQ(totals.number_at("batches"), 5.0);

  // The identity on the round-tripped totals:
  //   e2e = sum(stages) + fwp + bwp - hidden,  sum(stages) = makespan.
  const double stages =
      totals.number_at("sampling_us") + totals.number_at("reindex_us") +
      totals.number_at("lookup_us") + totals.number_at("transfer_us");
  expect_near_rel(stages, totals.number_at("makespan_us"), 1e-6,
                  "stage terms vs makespan");
  const double identity = stages + totals.number_at("fwp_us") +
                          totals.number_at("bwp_us") -
                          totals.number_at("overlap_hidden_us");
  expect_near_rel(identity, totals.number_at("end_to_end_us"), 1e-6,
                  "attribution identity");

  // Ledger totals reconcile with the reports the caller saw: every stage of
  // the Fig 12 breakdown is the sum of the batch reports' stage terms.
  double e2e = 0.0, fwp = 0.0, bwp = 0.0, makespan = 0.0, hidden = 0.0;
  double stage[4] = {0.0, 0.0, 0.0, 0.0};
  for (const frameworks::RunReport& r : reports) {
    ASSERT_TRUE(r.ok());
    e2e += r.end_to_end_us;
    fwp += r.fwp_us;
    bwp += r.bwp_us;
    makespan += r.preproc_makespan_us;
    const obs::attrib::StageTerms terms =
        obs::attrib::stage_terms(frameworks::batch_totals(r));
    hidden += terms.hidden_us;
    for (int t = 0; t < 4; ++t) stage[t] += terms.stage_us[t];
  }
  expect_near_rel(totals.number_at("end_to_end_us"), e2e, 1e-6, "e2e sum");
  expect_near_rel(totals.number_at("fwp_us"), fwp, 1e-6, "fwp sum");
  expect_near_rel(totals.number_at("bwp_us"), bwp, 1e-6, "bwp sum");
  expect_near_rel(totals.number_at("makespan_us"), makespan, 1e-6,
                  "makespan sum");
  expect_near_rel(totals.number_at("overlap_hidden_us"), hidden, 1e-6,
                  "hidden sum");
  const char* stage_keys[4] = {"sampling_us", "reindex_us", "lookup_us",
                               "transfer_us"};
  for (int t = 0; t < 4; ++t) {
    EXPECT_GT(stage[t], 0.0) << stage_keys[t];
    expect_near_rel(totals.number_at(stage_keys[t]), stage[t], 1e-6,
                    stage_keys[t]);
  }

  // Per-phase kernel-class sums cover the phase totals exactly: every
  // profiled microsecond of FWP/BWP is attributed to some kernel class.
  const obs::JsonObject& kernels = doc.at("kernels").as_object();
  ASSERT_FALSE(kernels.empty());
  double fwd_us = 0.0, bwd_us = 0.0, other_us = 0.0;
  for (const auto& [key, cls] : kernels) {
    const std::string& phase = cls.string_at("phase");
    if (phase == "fwd")
      fwd_us += cls.number_at("total_us");
    else if (phase == "bwd")
      bwd_us += cls.number_at("total_us");
    else
      other_us += cls.number_at("total_us");
  }
  expect_near_rel(fwd_us, fwp, 1e-6, "fwd kernel classes vs fwp");
  expect_near_rel(bwd_us, bwp, 1e-6, "bwd kernel classes vs bwp");
  EXPECT_EQ(other_us, 0.0);  // training loop runs entirely inside FWP/BWP

  // The DKP join recorded fitted residuals for the Prepro-GT cost model.
  const obs::JsonValue& residual = doc.at("costmodel").at("residual");
  EXPECT_GT(residual.number_at("samples"), 0.0);
  EXPECT_GE(residual.number_at("p95_pct"), residual.number_at("p50_pct"));
  EXPECT_FALSE(doc.at("costmodel").at("classes").as_object().empty());

  // Acceptance gate: gt_explain's self-test must pass on a real artifact —
  // identical-pair delta ~0 and the perturbed pair's stage attribution
  // summing to the e2e delta within 1%.
  obs::attrib::LedgerData data;
  ASSERT_TRUE(obs::attrib::LedgerData::load(path, &data, &err)) << err;
  EXPECT_EQ(data.batches, 5u);
  std::ostringstream narrative;
  EXPECT_TRUE(obs::attrib::run_self_test(data, narrative))
      << narrative.str();

  std::filesystem::remove(path);
}

TEST(ServiceLedger, ArmedRunBitIdenticalToOffRun) {
  ServiceOptions opt = base_options();
  opt.workers = 4;
  const std::string path = fresh_path("bitident");
  {
    GnnService off = make_service(opt);
    ServiceOptions armed_opt = opt;
    armed_opt.kernel_ledger_out = path;
    GnnService armed = make_service(armed_opt);

    const auto a = off.train_batches(6);
    const auto b = armed.train_batches(6);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_EQ(a[i].loss, b[i].loss);
      EXPECT_EQ(a[i].kernel_launches, b[i].kernel_launches);
      EXPECT_EQ(a[i].kernel_total_us, b[i].kernel_total_us);
      EXPECT_EQ(a[i].end_to_end_us, b[i].end_to_end_us);
      EXPECT_EQ(a[i].fwp_us, b[i].fwp_us);
      EXPECT_EQ(a[i].bwp_us, b[i].bwp_us);
      EXPECT_EQ(a[i].flops, b[i].flops);
      EXPECT_EQ(a[i].peak_memory_bytes, b[i].peak_memory_bytes);
    }
    // Trained parameters digest-identical; held-out accuracy follows.
    EXPECT_EQ(fault::params_digest(off.params()),
              fault::params_digest(armed.params()));
    EXPECT_DOUBLE_EQ(off.evaluate(2), armed.evaluate(2));
  }
  std::filesystem::remove(path);
}

TEST(ServiceLedger, NoLedgerOptionMeansDisarmed) {
  GnnService service = make_service(base_options());
  EXPECT_FALSE(obs::attrib::KernelLedger::global().armed());
  service.train_batches(2);
  EXPECT_EQ(obs::attrib::KernelLedger::global().batch_count(), 0u);
}

}  // namespace
}  // namespace gt
