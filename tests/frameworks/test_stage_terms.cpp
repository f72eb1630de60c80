// The one stage decomposition (obs::attrib::stage_terms of
// frameworks::batch_totals), on every batch shape the Fig 12 bench and the
// kernel ledger see: the S/R/K/T terms split the preprocessing makespan,
// and with compute net of what preprocessing hid they add up to the
// end-to-end latency, so Fig 12's shares of e2e sum to one.
#include <gtest/gtest.h>

#include "frameworks/framework.hpp"
#include "models/config.hpp"

namespace gt::frameworks {
namespace {

/// Train three batches of `framework` on a small products graph, with a
/// 64 KiB tiered cache and prefetch when `tiered_cache`, tensor-parallel
/// over `devices` when above 1, and check every batch's terms.
void expect_shares_sum_to_one(const char* framework, bool tiered_cache,
                              std::size_t devices) {
  const Dataset data = generate("products", 5);
  const models::GnnModelConfig model = models::gcn(8, 47);
  models::ModelParams params(model, data.spec.feature_dim, 7);
  auto fw = make_framework(framework);
  if (tiered_cache) {
    sampling::CacheConfig cfg;
    cfg.budget_bytes = std::size_t{1} << 16;
    cfg.policy = sampling::CachePolicy::kTiered;
    cfg.prefetch = true;
    ASSERT_TRUE(fw->configure_cache(cfg));
  }
  if (devices > 1) {
    ShardOptions shard;
    shard.devices = devices;
    shard.strategy = ShardStrategy::kTensorParallel;
    ASSERT_TRUE(fw->configure_sharding(shard));
  }
  for (std::size_t b = 0; b < 3; ++b) {
    SCOPED_TRACE(b);
    BatchSpec spec;
    spec.batch_size = 64;
    spec.batch_index = b;
    const RunReport r = fw->run_batch(data, model, params, spec);
    ASSERT_TRUE(r.ok());
    const obs::attrib::StageTerms terms =
        obs::attrib::stage_terms(batch_totals(r));
    double stages = 0.0;
    for (double s : terms.stage_us) {
      EXPECT_GE(s, 0.0);
      stages += s;
    }
    EXPECT_GT(r.preproc_makespan_us, 0.0);
    EXPECT_NEAR(stages, r.preproc_makespan_us,
                1e-9 * r.preproc_makespan_us);
    const double e2e = r.end_to_end_us;
    double shares = (terms.fwp_us + terms.bwp_us - terms.hidden_us) / e2e;
    for (double s : terms.stage_us) shares += s / e2e;
    EXPECT_NEAR(shares, 1.0, 1e-9);
  }
}

TEST(StageTerms, SerializedPygMtSharesSumToOne) {
  expect_shares_sum_to_one("PyG-MT", false, 1);
}

TEST(StageTerms, OverlappedPreproGtSharesSumToOne) {
  expect_shares_sum_to_one("Prepro-GT", false, 1);
}

TEST(StageTerms, TieredCacheWithPrefetchSharesSumToOne) {
  expect_shares_sum_to_one("Prepro-GT", true, 1);
}

TEST(StageTerms, TwoDeviceTensorParallelSharesSumToOne) {
  expect_shares_sum_to_one("Prepro-GT", false, 2);
}

TEST(StageTerms, NothingBusyLeavesStageTermsZeroAndHiddenStaysSigned) {
  obs::attrib::BatchTotals t;
  t.fwp_us = 30.0;
  t.bwp_us = 20.0;
  t.end_to_end_us = 60.0;  // a group makespan above the serial kernel time
  const obs::attrib::StageTerms terms = obs::attrib::stage_terms(t);
  for (double s : terms.stage_us) EXPECT_EQ(s, 0.0);
  EXPECT_EQ(terms.fwp_us, 30.0);
  EXPECT_EQ(terms.bwp_us, 20.0);
  EXPECT_EQ(terms.hidden_us, -10.0);
}

}  // namespace
}  // namespace gt::frameworks
