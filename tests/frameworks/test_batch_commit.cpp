// The batch commit point (DESIGN.md §18): every write that depends on a
// batch's outcome — SGD, cache admissions, cost-model and collective
// samples, the DKP decision counters, the fits — is applied in one block
// after execute's try. A success or an OOM applies it; any other exception
// (a fault the service retries) skips it, so a retried batch leaves the
// framework exactly as a fault-free run does.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "frameworks/framework.hpp"
#include "frameworks/graphtensor.hpp"
#include "models/config.hpp"
#include "obs/metrics.hpp"

namespace gt::frameworks {
namespace {

using Variant = GraphTensorFramework::Variant;

/// Run batches 0..count-1 on `fw` in one context, each under a PlanScope
/// for `plan` (nullptr = fault-free), retrying a batch until it reports.
std::vector<RunReport> run_retrying(Framework& fw, const Dataset& data,
                                    const models::GnnModelConfig& model,
                                    models::ModelParams& params,
                                    BatchSpec spec, std::size_t count,
                                    fault::FaultPlan* plan) {
  pipeline::BatchContext ctx;
  std::vector<RunReport> reports;
  for (std::size_t b = 0; b < count; ++b) {
    spec.batch_index = b;
    for (;;) {
      try {
        fault::PlanScope scope(plan, b);
        reports.push_back(fw.run_batch(data, model, params, spec, ctx));
        break;
      } catch (const fault::InjectedFault&) {
      }
    }
  }
  return reports;
}

struct CachedShardedRun {
  std::vector<RunReport> reports;
  std::vector<Matrix> params;  // w then b, per layer
  sampling::CacheStats cache;
  std::size_t samples = 0;
  std::size_t collective_samples = 0;
  bool fitted = false;
  std::vector<double> coefficients;
};

CachedShardedRun run_cached_sharded(const Dataset& data,
                                    ShardStrategy strategy,
                                    fault::FaultPlan* plan) {
  const models::GnnModelConfig model = models::gcn(8, 47);
  GraphTensorFramework fw(Variant::kPrepro);
  sampling::CacheConfig cache;
  cache.budget_bytes = std::size_t{1} << 20;
  cache.policy = sampling::CachePolicy::kTiered;
  cache.prefetch = true;
  EXPECT_TRUE(fw.configure_cache(cache));
  EXPECT_TRUE(fw.configure_sharding({.devices = 2, .strategy = strategy}));
  models::ModelParams params(model, data.spec.feature_dim, 7);
  BatchSpec spec;
  spec.batch_size = 64;
  spec.order = OrderPolicy::kDynamic;
  spec.learning_rate = 0.05f;

  CachedShardedRun run;
  // Six batches: the cost-model fit lands after kFitAfterBatches = 4.
  run.reports = run_retrying(fw, data, model, params, spec, 6, plan);
  for (std::uint32_t l = 0; l < params.num_layers(); ++l) {
    run.params.push_back(params.w(l));
    run.params.push_back(params.b(l));
  }
  run.cache = fw.cache_stats();
  run.samples = fw.cost_model().sample_count();
  run.collective_samples = fw.cost_model().collective_sample_count();
  run.fitted = fw.cost_model().fitted();
  run.coefficients.assign(fw.cost_model().coefficients().begin(),
                          fw.cost_model().coefficients().end());
  return run;
}

void expect_same_run(const CachedShardedRun& a, const CachedShardedRun& b) {
  ASSERT_EQ(a.reports.size(), b.reports.size());
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    SCOPED_TRACE("batch " + std::to_string(i));
    EXPECT_EQ(a.reports[i].loss, b.reports[i].loss);
    EXPECT_EQ(a.reports[i].end_to_end_us, b.reports[i].end_to_end_us);
    EXPECT_EQ(a.reports[i].group_makespan_us, b.reports[i].group_makespan_us);
  }
  ASSERT_EQ(a.params.size(), b.params.size());
  for (std::size_t i = 0; i < a.params.size(); ++i) {
    ASSERT_EQ(a.params[i].data().size(), b.params[i].data().size());
    EXPECT_EQ(0, std::memcmp(a.params[i].data().data(),
                             b.params[i].data().data(),
                             a.params[i].data().size() * sizeof(float)))
        << "parameter matrix " << i;
  }
  EXPECT_EQ(a.cache.static_hits, b.cache.static_hits);
  EXPECT_EQ(a.cache.dynamic_hits, b.cache.dynamic_hits);
  EXPECT_EQ(a.cache.prefetch_hits, b.cache.prefetch_hits);
  EXPECT_EQ(a.cache.misses, b.cache.misses);
  EXPECT_EQ(a.cache.evictions, b.cache.evictions);
  EXPECT_EQ(a.cache.prefetched_rows, b.cache.prefetched_rows);
  EXPECT_EQ(a.cache.batches, b.cache.batches);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.collective_samples, b.collective_samples);
  EXPECT_EQ(a.fitted, b.fitted);
  EXPECT_EQ(a.coefficients, b.coefficients);
}

/// A transient kernel fault at batch 2's last launch interrupts layer 0's
/// backward: by then layer 1's SGD update, the cache lookup, the forward
/// and layer-1 backward cost-model samples and the DKP decisions are all
/// staged. The retry must find none of them applied.
void expect_retry_leaves_staged_writes_untouched(ShardStrategy strategy) {
  const Dataset data = generate("products", 5);
  const CachedShardedRun clean = run_cached_sharded(data, strategy, nullptr);
  ASSERT_EQ(clean.reports.size(), 6u);
  // The run exercises every staged write: cache traffic, both sample
  // sets, and the fit.
  EXPECT_GT(clean.cache.hits() + clean.cache.misses, 0u);
  EXPECT_GT(clean.samples, 0u);
  EXPECT_GT(clean.collective_samples, 0u);
  EXPECT_TRUE(clean.fitted);

  const std::uint64_t last_launch = clean.reports[2].kernel_launches - 1;
  fault::FaultPlan plan = fault::FaultPlan::parse(
      "gpusim.kernel@batch=2:layer=" + std::to_string(last_launch));
  const CachedShardedRun retried = run_cached_sharded(data, strategy, &plan);
  EXPECT_EQ(plan.injected(), 1u);
  expect_same_run(clean, retried);
}

TEST(BatchCommit, RetriedFaultOnCachedRangeShardedRunLeavesStagedWrites) {
  expect_retry_leaves_staged_writes_untouched(ShardStrategy::kRange);
}

TEST(BatchCommit, RetriedFaultOnCachedTensorParallelRunLeavesStagedWrites) {
  expect_retry_leaves_staged_writes_untouched(ShardStrategy::kTensorParallel);
}

// The fit follows one rule: it runs only after a training batch's outcome
// (success or OOM). An inference batch never fits, OOM or not.
TEST(BatchCommit, OnlyTrainingBatchesFitTheCostModel) {
  const Dataset data = generate("products", 5);
  const models::GnnModelConfig model = models::gcn(8, 47);
  BatchSpec spec;
  spec.batch_size = 64;
  spec.order = OrderPolicy::kDynamic;

  for (const bool inference : {true, false}) {
    SCOPED_TRACE(inference ? "inference" : "training");
    spec.inference = inference;
    {
      GraphTensorFramework fw(Variant::kDynamic);
      models::ModelParams params(model, data.spec.feature_dim, 7);
      const std::vector<RunReport> reports =
          run_retrying(fw, data, model, params, spec, 4, nullptr);
      for (const RunReport& r : reports) ASSERT_TRUE(r.ok());
      // Four batches x two layers of forward passes (x2 with backward).
      EXPECT_EQ(fw.cost_model().sample_count(), inference ? 8u : 16u);
      EXPECT_EQ(fw.cost_model().fitted(), !inference);
    }
    {
      // The fourth batch runs out of memory while uploading, before any
      // layer ran: its outcome is an OOM report.
      GraphTensorFramework fw(Variant::kDynamic);
      models::ModelParams params(model, data.spec.feature_dim, 7);
      fault::FaultPlan plan =
          fault::FaultPlan::parse("gpusim.alloc@batch=3:kind=oom");
      const std::vector<RunReport> reports =
          run_retrying(fw, data, model, params, spec, 4, &plan);
      EXPECT_TRUE(reports[3].oom);
      EXPECT_EQ(fw.cost_model().sample_count(), inference ? 6u : 12u);
      EXPECT_EQ(fw.cost_model().fitted(), !inference);
    }
  }
}

// The dkp.decisions.* counters count committed batches: a retried batch
// contributes its decisions once, like the fault-free run.
TEST(BatchCommit, RetriedAttemptsDoNotCountDkpDecisions) {
  const Dataset data = generate("products", 5);
  const models::GnnModelConfig model = models::gcn(8, 47);
  BatchSpec spec;
  spec.batch_size = 64;
  spec.order = OrderPolicy::kDynamic;
  obs::Counter& agg = obs::metrics().counter("dkp.decisions.agg_first");
  obs::Counter& comb = obs::metrics().counter("dkp.decisions.comb_first");

  struct Deltas {
    std::uint64_t agg = 0, comb = 0;
  };
  auto run = [&](fault::FaultPlan* plan) {
    GraphTensorFramework fw(Variant::kPrepro);
    models::ModelParams params(model, data.spec.feature_dim, 7);
    const std::uint64_t agg0 = agg.value();
    const std::uint64_t comb0 = comb.value();
    run_retrying(fw, data, model, params, spec, 6, plan);
    return Deltas{agg.value() - agg0, comb.value() - comb0};
  };
  const Deltas clean = run(nullptr);
  EXPECT_EQ(clean.agg + clean.comb, 12u);  // six batches x two layers
  // The first launch of batch 2's first two attempts fails, after the
  // placement of both layers was decided.
  fault::FaultPlan plan =
      fault::FaultPlan::parse("gpusim.kernel@batch=2:times=2");
  const Deltas retried = run(&plan);
  EXPECT_EQ(plan.injected(), 2u);
  EXPECT_EQ(retried.agg, clean.agg);
  EXPECT_EQ(retried.comb, clean.comb);
}

}  // namespace
}  // namespace gt::frameworks
