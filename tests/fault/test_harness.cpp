#include "fault/harness.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace gt::fault {
namespace {

TEST(FaultHarness, ParamsDigestDiscriminates) {
  const Dataset data = generate("products", 3);
  models::ModelParams a(models::gcn(8, 47), data.spec.feature_dim, 42);
  models::ModelParams b(models::gcn(8, 47), data.spec.feature_dim, 42);
  EXPECT_EQ(params_digest(a), params_digest(b));
  models::ModelParams c(models::gcn(8, 47), data.spec.feature_dim, 43);
  EXPECT_NE(params_digest(a), params_digest(c));
}

// A schedule aimed past the sweep's last batch never fires, which used to
// read as a recovery failure; the reach comes from the parsed batch=
// coordinates of every entry.
TEST(FaultHarness, RejectsBatchCountsShortOfTheSchedules) {
  HarnessOptions opts;
  opts.backends = {"DGL"};
  opts.worker_counts = {1};
  opts.batches = 4;  // the stock schedules reach batch 4
  EXPECT_THROW(run_sweep(opts), std::invalid_argument);
  opts.fault_specs = {"transfer@batch=0;preproc.sample@batch=2:always"};
  opts.batches = 2;
  EXPECT_THROW(run_sweep(opts), std::invalid_argument);
  opts.batches = 3;
  const HarnessResult result = run_sweep(opts);
  EXPECT_TRUE(result.all_ok);
}

// The full eight-backend matrix runs in CI via tools/fault_harness; the
// unit test keeps one GT variant and one baseline so the suite stays
// fast while still crossing both kinds of layer step the one layer loop
// runs (the Graph-approach baseline vs NAPA with the cost model).
TEST(FaultHarness, SweepInvariantsHoldAcrossBackendsAndWorkers) {
  HarnessOptions opts;
  opts.backends = {"DGL", "Prepro-GT"};
  opts.worker_counts = {1, 4};
  opts.batches = 6;
  const HarnessResult result = run_sweep(opts);
  // 1 baseline + (specs + the derived mid-backward kernel spec) x worker
  // counts, per backend.
  ASSERT_EQ(result.runs.size(),
            opts.backends.size() * (1 + (opts.fault_specs.size() + 1) * 2));
  bool saw_derived_spec = false;
  for (const HarnessRun& r : result.runs)
    saw_derived_spec = saw_derived_spec ||
                       (r.fault_spec.rfind("gpusim.kernel@batch=1:layer=", 0) ==
                        0);
  EXPECT_TRUE(saw_derived_spec);
  for (const HarnessRun& r : result.runs) {
    SCOPED_TRACE(r.backend + " workers=" + std::to_string(r.workers) +
                 " spec='" + r.fault_spec + "'");
    EXPECT_TRUE(r.ok) << r.why;
    EXPECT_TRUE(r.params_match);
    EXPECT_TRUE(r.reports_match);
    if (r.recoverable && !r.fault_spec.empty()) {
      EXPECT_GT(r.injected, 0u);
      EXPECT_GT(r.retries, 0u);
      EXPECT_GT(r.backoff_ticks, 0u);
      EXPECT_EQ(r.degraded, 0u);
    }
  }
  EXPECT_TRUE(result.all_ok);
}

}  // namespace
}  // namespace gt::fault
