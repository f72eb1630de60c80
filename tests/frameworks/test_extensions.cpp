// Tests for the reproduction's extension features: forward-only inference
// and the PaGraph-style embedding cache.
#include <gtest/gtest.h>

#include "frameworks/framework.hpp"
#include "frameworks/graphtensor.hpp"
#include "models/config.hpp"

namespace gt::frameworks {
namespace {

struct Fixture {
  Dataset data = generate("products", 5);
  models::GnnModelConfig gcn = models::gcn(8, 47);
};

TEST(Inference, ForwardOnlyIsCheaperThanTraining) {
  Fixture fx;
  for (const auto& name : framework_names()) {
    models::ModelParams params(fx.gcn, fx.data.spec.feature_dim, 7);
    auto fw = make_framework(name);
    BatchSpec spec;
    spec.batch_size = 64;
    RunReport train = fw->run_batch(fx.data, fx.gcn, params, spec);
    spec.inference = true;
    RunReport infer = fw->run_batch(fx.data, fx.gcn, params, spec);
    ASSERT_FALSE(infer.oom) << name;
    EXPECT_LT(infer.kernel_total_us, train.kernel_total_us) << name;
  }
}

TEST(Inference, DoesNotTouchParameters) {
  Fixture fx;
  models::ModelParams params(fx.gcn, fx.data.spec.feature_dim, 7);
  const Matrix before = params.w(0);
  auto fw = make_framework("Dynamic-GT");
  BatchSpec spec;
  spec.batch_size = 64;
  spec.inference = true;
  fw->run_batch(fx.data, fx.gcn, params, spec);
  EXPECT_EQ(params.w(0), before);
}

TEST(Inference, DynamicGtDecidesForwardOnly) {
  // In inference there is no first-layer backward skip crediting the
  // conventional order, so combination-first triggers at least as often.
  Fixture heavy{generate("wiki-talk", 5), models::gcn(8, 2)};
  GraphTensorFramework fw(GraphTensorFramework::Variant::kDynamic);
  models::ModelParams params(heavy.gcn, heavy.data.spec.feature_dim, 7);
  BatchSpec spec;
  spec.order = OrderPolicy::kDynamic;
  spec.inference = true;
  RunReport r = fw.run_batch(heavy.data, heavy.gcn, params, spec);
  ASSERT_FALSE(r.oom);
  // wiki-talk layer 0 is 544 -> 8: forward-only hoisting is a clear win
  // already under the analytic (unfitted) model.
  EXPECT_EQ(r.layer_comb_first_fwd[0], 1u);
  EXPECT_EQ(r.loss, 0.0f);  // no loss computed
}

TEST(EmbeddingCacheFramework, SameLossShorterPreprocessing) {
  Dataset data = generate("wiki-talk", 5);  // heavy features: K/T dominate
  auto model = models::gcn(8, 2);
  BatchSpec spec;

  GraphTensorFramework plain(GraphTensorFramework::Variant::kPrepro);
  models::ModelParams p1(model, data.spec.feature_dim, 7);
  RunReport without = plain.run_batch(data, model, p1, spec);

  GraphTensorFramework cached(GraphTensorFramework::Variant::kPrepro);
  sampling::CacheConfig cache;  // default policy: degree-pinned static
  cache.budget_bytes = 8 << 20;
  cached.configure_cache(cache);
  models::ModelParams p2(model, data.spec.feature_dim, 7);
  RunReport with = cached.run_batch(data, model, p2, spec);

  ASSERT_FALSE(with.oom);
  EXPECT_GT(cached.last_cache_hit_rate(), 0.2);
  // Numerics identical: the assembled table equals the full gather.
  EXPECT_NEAR(with.loss, without.loss, 1e-5f);
  EXPECT_LT(with.preproc_makespan_us, without.preproc_makespan_us);
}

TEST(EmbeddingCacheFramework, ZeroHitRateOnUniformGraphIsHarmless) {
  // roadnet-ca has near-uniform degrees: the cache catches little (the
  // PaGraph sensitivity the paper notes), but training must stay correct.
  Dataset data = generate("roadnet-ca", 5);
  auto model = models::gcn(8, 2);
  BatchSpec spec;
  spec.batch_size = 64;
  GraphTensorFramework cached(GraphTensorFramework::Variant::kPrepro);
  sampling::CacheConfig cache;  // default policy: degree-pinned static
  cache.budget_bytes = 1 << 20;
  cached.configure_cache(cache);
  GraphTensorFramework plain(GraphTensorFramework::Variant::kPrepro);
  models::ModelParams p1(model, data.spec.feature_dim, 7);
  models::ModelParams p2(model, data.spec.feature_dim, 7);
  RunReport with = cached.run_batch(data, model, p1, spec);
  RunReport without = plain.run_batch(data, model, p2, spec);
  ASSERT_FALSE(with.oom);
  EXPECT_NEAR(with.loss, without.loss, 1e-5f);
  EXPECT_LT(cached.last_cache_hit_rate(), 0.55);
}

}  // namespace
}  // namespace gt::frameworks
