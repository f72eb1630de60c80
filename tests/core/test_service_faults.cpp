// Exception-safe serving + gt::fault integration: the steady-state loop
// must drain its in-flight work before any unwind, retry transient
// faults into bit-identical results, and degrade gracefully past the
// retry budget. (The headline regression: a preprocessing throw at batch
// k < workers used to let pool tasks outlive run_batches' stack vectors
// — a use-after-free under ASan/TSan.)
#include "core/graphtensor.hpp"


#include <gtest/gtest.h>

namespace gt {
namespace {

ServiceOptions base_options(const std::string& framework = "Prepro-GT") {
  ServiceOptions opt;
  opt.framework = framework;
  opt.batch_size = 48;
  return opt;
}

GnnService make_service(ServiceOptions opt) {
  return GnnService(generate("products", 3), models::gcn(8, 47), opt);
}

void expect_params_equal(const models::ModelParams& a,
                         const models::ModelParams& b) {
  ASSERT_EQ(a.num_layers(), b.num_layers());
  for (std::uint32_t l = 0; l < a.num_layers(); ++l) {
    const auto wa = a.w(l).data(), wb = b.w(l).data();
    const auto ba = a.b(l).data(), bb = b.b(l).data();
    ASSERT_EQ(wa.size(), wb.size());
    for (std::size_t i = 0; i < wa.size(); ++i)
      ASSERT_EQ(wa[i], wb[i]) << "w[" << l << "][" << i << "]";
    ASSERT_EQ(ba.size(), bb.size());
    for (std::size_t i = 0; i < ba.size(); ++i)
      ASSERT_EQ(ba[i], bb[i]) << "b[" << l << "][" << i << "]";
  }
}

void expect_intrinsics_equal(const frameworks::RunReport& a,
                             const frameworks::RunReport& b) {
  EXPECT_EQ(a.oom, b.oom);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.loss, b.loss);
  EXPECT_EQ(a.kernel_launches, b.kernel_launches);
  EXPECT_EQ(a.kernel_total_us, b.kernel_total_us);
  EXPECT_EQ(a.end_to_end_us, b.end_to_end_us);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes);
  EXPECT_EQ(a.preproc_makespan_us, b.preproc_makespan_us);
  EXPECT_EQ(a.arena_peak_bytes, b.arena_peak_bytes);
  EXPECT_EQ(a.arena_allocations, b.arena_allocations);
  EXPECT_EQ(a.layer_comb_first_fwd, b.layer_comb_first_fwd);
}

// --- Headline regression -----------------------------------------------------
// An abort fault in preprocessing at batch k < workers unwinds run_batches
// while later batches are still preparing on the pool. Before the drain
// fix those tasks kept writing through pointers into the destroyed stack
// frame (prepare_us / inflight / the specs copy). Run under ASan/TSan
// this test is the use-after-free regression; under any build it asserts
// the service survives and keeps serving.
TEST(ServiceFaults, AbortAtEarlyBatchDrainsInflightBeforeUnwind) {
  ServiceOptions opt = base_options();
  opt.workers = 4;
  opt.fault_spec = "preproc.sample@batch=1:kind=abort";
  GnnService service = make_service(opt);
  EXPECT_THROW(service.train_batches(8), fault::InjectedFault);
  // The abort entry fired once and disarmed; the quarantined contexts
  // must come back clean for the next call.
  const auto reports = service.train_batches(4);
  ASSERT_EQ(reports.size(), 4u);
  for (const auto& r : reports) {
    EXPECT_TRUE(r.ok());
    EXPECT_GT(r.loss, 0.0f);
  }
}

TEST(ServiceFaults, AbortDuringExecuteAlsoDrainsAndRecovers) {
  ServiceOptions opt = base_options();
  opt.workers = 4;
  opt.fault_spec = "gpusim.kernel@batch=0:kind=abort";
  GnnService service = make_service(opt);
  EXPECT_THROW(service.train_batches(6), fault::InjectedFault);
  const auto reports = service.train_batches(2);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_TRUE(reports[0].ok());
  EXPECT_TRUE(reports[1].ok());
}

// An abort can also fire on a RETRY — the attempt run_with_recovery
// launches from inside the ring's catch handler after a transient fault
// burned attempt #0. That unwind starts while later batches are still
// preparing on the pool; before the unwind guard it skipped the drain
// entirely (the retry had no surrounding try), reviving the
// use-after-scope this file's headline test pins down. Both entries match
// the same coordinates, so the transient one fires first and the abort
// takes over on the retry.
TEST(ServiceFaults, AbortOnPrepareRetryStillDrainsInflight) {
  ServiceOptions opt = base_options();
  opt.workers = 4;
  opt.fault_spec =
      "preproc.sample@batch=2;preproc.sample@batch=2:kind=abort";
  GnnService service = make_service(opt);
  EXPECT_THROW(service.train_batches(8), fault::InjectedFault);
  ASSERT_EQ(service.fault_plan()->injected(), 2u);  // transient, then abort
  const auto reports = service.train_batches(4);
  ASSERT_EQ(reports.size(), 4u);
  for (const auto& r : reports) EXPECT_TRUE(r.ok());
}

TEST(ServiceFaults, AbortOnExecuteRetryStillDrainsInflight) {
  ServiceOptions opt = base_options();
  opt.workers = 4;
  opt.fault_spec = "gpusim.kernel@batch=1;gpusim.kernel@batch=1:kind=abort";
  GnnService service = make_service(opt);
  EXPECT_THROW(service.train_batches(6), fault::InjectedFault);
  ASSERT_EQ(service.fault_plan()->injected(), 2u);
  const auto reports = service.train_batches(2);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_TRUE(reports[0].ok());
  EXPECT_TRUE(reports[1].ok());
}

// --- Transient faults recover bit-identically --------------------------------

void expect_transient_recovery(const std::string& spec,
                               std::size_t faulted_batch,
                               std::size_t workers) {
  SCOPED_TRACE("spec=" + spec + " workers=" + std::to_string(workers));
  ServiceOptions opt = base_options();
  GnnService clean = make_service(opt);
  opt.workers = workers;
  opt.fault_spec = spec;
  GnnService faulted = make_service(opt);

  const auto a = clean.train_batches(6);
  const auto b = faulted.train_batches(6);
  ASSERT_EQ(faulted.fault_plan()->injected(), 1u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    expect_intrinsics_equal(a[i], b[i]);
    EXPECT_EQ(a[i].retries, 0u);
    EXPECT_EQ(b[i].retries, i == faulted_batch ? 1u : 0u);
    EXPECT_EQ(b[i].backoff_ticks, i == faulted_batch ? 1u : 0u);
  }
  EXPECT_EQ(faulted.virtual_backoff_ticks(), 1u);
  expect_params_equal(clean.params(), faulted.params());
  EXPECT_DOUBLE_EQ(clean.evaluate(2), faulted.evaluate(2));
}

TEST(ServiceFaults, TransientPrepareFaultRecoversBitIdenticalSerial) {
  expect_transient_recovery("preproc.sample@batch=1", 1, 1);
}

TEST(ServiceFaults, TransientPrepareFaultRecoversBitIdenticalRing) {
  expect_transient_recovery("preproc.sample@batch=1", 1, 4);
}

TEST(ServiceFaults, TransientReindexFaultRecovers) {
  expect_transient_recovery("preproc.reindex@batch=2:layer=1", 2, 4);
}

TEST(ServiceFaults, TransientExecuteFaultRecoversSerial) {
  expect_transient_recovery("gpusim.kernel@batch=2", 2, 1);
}

TEST(ServiceFaults, TransientExecuteFaultRecoversRing) {
  expect_transient_recovery("gpusim.kernel@batch=2", 2, 4);
}

TEST(ServiceFaults, TransientTransferFaultRecovers) {
  expect_transient_recovery("transfer@batch=0", 0, 4);
}

// A transient fault at the batch's LAST kernel launch fires deep in the
// backward pass, after later layers' gradients are already downloaded.
// Before SGD updates were staged (detail::SgdStage), the faulted attempt
// had already committed those layers' updates to the service's params, so
// the retry re-ran against mutated parameters and diverged from the
// fault-free run. The launch count is probed off a clean service's report
// for the same batch index (it is batch-intrinsic and deterministic).
TEST(ServiceFaults, MidBackwardTransientFaultRecoversBitIdentical) {
  GnnService probe = make_service(base_options());
  probe.train_batch();                      // batch 0
  const auto probed = probe.train_batch();  // batch 1
  ASSERT_GT(probed.kernel_launches, 0u);

  ServiceOptions opt = base_options();
  GnnService clean = make_service(opt);
  opt.fault_spec = "gpusim.kernel@batch=1:layer=" +
                   std::to_string(probed.kernel_launches - 1);
  GnnService faulted = make_service(opt);

  const auto a = clean.train_batches(3);
  const auto b = faulted.train_batches(3);
  ASSERT_EQ(faulted.fault_plan()->injected(), 1u);
  EXPECT_EQ(b[1].retries, 1u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    expect_intrinsics_equal(a[i], b[i]);
  }
  expect_params_equal(clean.params(), faulted.params());
}

// The same coordinate with an `always` budget degrades the batch; a
// degraded batch must contribute NOTHING to the parameters (it is excluded
// from the epoch stats), not the partial backward it got through before
// each attempt failed.
TEST(ServiceFaults, MidBackwardDegradedBatchLeavesParamsUntouched) {
  GnnService probe = make_service(base_options());
  probe.train_batch();
  probe.train_batch();
  const auto probed = probe.train_batch();  // batch 2
  ASSERT_GT(probed.kernel_launches, 0u);

  ServiceOptions opt = base_options();
  opt.fault_spec = "gpusim.kernel@batch=2:layer=" +
                   std::to_string(probed.kernel_launches - 1) + ":always";
  GnnService faulted = make_service(opt);
  const auto reports = faulted.train_batches(3);
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_TRUE(reports[2].failed);

  // Params must equal a clean run that never saw batch 2 at all.
  GnnService clean = make_service(base_options());
  clean.train_batches(2);
  expect_params_equal(clean.params(), faulted.params());
}

TEST(ServiceFaults, RepeatedFaultConsumesExponentialBackoff) {
  ServiceOptions opt = base_options();
  opt.fault_spec = "gpusim.kernel@batch=1:times=3";
  GnnService service = make_service(opt);
  const auto reports = service.train_batches(3);
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_TRUE(reports[1].ok());
  EXPECT_EQ(reports[1].retries, 3u);
  // base 1: retries wait 1, 2, 4 ticks.
  EXPECT_EQ(reports[1].backoff_ticks, 7u);
  EXPECT_EQ(service.virtual_backoff_ticks(), 7u);
}

// --- Graceful degradation past the retry budget -------------------------------

TEST(ServiceFaults, PersistentFaultDegradesAndServiceKeepsServing) {
  for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(workers);
    ServiceOptions opt = base_options();
    opt.workers = workers;
    opt.fault_spec = "preproc.sample@batch=2:always";
    GnnService service = make_service(opt);
    const auto reports = service.train_batches(5);
    ASSERT_EQ(reports.size(), 5u);
    for (std::size_t i = 0; i < reports.size(); ++i) {
      SCOPED_TRACE(i);
      if (i == 2) {
        EXPECT_TRUE(reports[i].failed);
        EXPECT_FALSE(reports[i].ok());
        EXPECT_EQ(reports[i].retries, opt.max_retries);
        EXPECT_NE(reports[i].failed_reason.find("preproc.sample"),
                  std::string::npos);
      } else {
        EXPECT_TRUE(reports[i].ok());
        EXPECT_GT(reports[i].loss, 0.0f);
      }
    }
  }
}

TEST(ServiceFaults, TrainEpochAccountsDegradedBatches) {
  ServiceOptions opt = base_options();
  opt.fault_spec = "preproc.sample@batch=1:always";
  GnnService service = make_service(opt);
  const EpochStats stats = service.train_epoch(4);
  EXPECT_EQ(stats.batches, 4u);
  EXPECT_EQ(stats.degraded_batches, 1u);
  EXPECT_EQ(stats.oom_batches, 0u);
  EXPECT_EQ(stats.retries, opt.max_retries);
  EXPECT_GT(stats.backoff_ticks, 0u);
  EXPECT_GT(stats.mean_loss, 0.0);  // means exclude the degraded batch
}

// --- Injected OOM takes the report path, identically at any worker count -----

TEST(ServiceFaults, InjectedOomMatchesAcrossWorkerCounts) {
  ServiceOptions opt = base_options();
  opt.fault_spec = "gpusim.alloc@batch=2:kind=oom";
  opt.workers = 1;
  GnnService serial = make_service(opt);
  opt.workers = 4;
  GnnService ring = make_service(opt);
  const auto a = serial.train_batches(6);
  const auto b = ring.train_batches(6);
  ASSERT_EQ(a.size(), 6u);
  ASSERT_EQ(b.size(), 6u);
  EXPECT_TRUE(a[2].oom);
  EXPECT_FALSE(a[2].failed);  // reported, not degraded: no retries burned
  EXPECT_EQ(a[2].retries, 0u);
  for (std::size_t i = 0; i < 6; ++i) {
    SCOPED_TRACE(i);
    expect_intrinsics_equal(a[i], b[i]);
  }
  expect_params_equal(serial.params(), ring.params());

  // EpochStats see the same exclusion at both worker counts.
  opt.workers = 1;
  GnnService s1 = make_service(opt);
  opt.workers = 4;
  GnnService s4 = make_service(opt);
  const EpochStats e1 = s1.train_epoch(6);
  const EpochStats e4 = s4.train_epoch(6);
  EXPECT_EQ(e1.oom_batches, 1u);
  EXPECT_EQ(e4.oom_batches, 1u);
  EXPECT_EQ(e1.degraded_batches, 0u);
  EXPECT_EQ(e4.degraded_batches, 0u);
  EXPECT_DOUBLE_EQ(e1.mean_loss, e4.mean_loss);
  EXPECT_DOUBLE_EQ(e1.mean_kernel_us, e4.mean_kernel_us);
}

// --- Configuration plumbing ---------------------------------------------------

TEST(ServiceFaults, MalformedSpecThrowsFromConstructor) {
  ServiceOptions opt = base_options();
  opt.fault_spec = "gpusim.alloc@bogus";
  EXPECT_THROW(make_service(opt), std::invalid_argument);
}

TEST(ServiceFaults, NoSpecMeansNoPlanAndNoOverhead) {
  GnnService service = make_service(base_options());
  EXPECT_EQ(service.fault_plan(), nullptr);
  EXPECT_EQ(service.virtual_backoff_ticks(), 0u);
  const auto reports = service.train_batches(2);
  for (const auto& r : reports) {
    EXPECT_EQ(r.retries, 0u);
    EXPECT_EQ(r.backoff_ticks, 0u);
  }
}

// --- Eval stream partition (satellite: seed-domain collision fix) ------------

TEST(ServiceFaults, EvalStreamIsDisjointFromTrainingIndices) {
  static_assert(GnnService::kEvalStreamTag == (1ull << 63));
  static_assert(GnnService::eval_batch_index(0) == (1ull << 63));
  static_assert((GnnService::eval_batch_index(7) & (1ull << 63)) != 0);
  // The old offset collided once training reached 2^20 batches; the
  // tagged stream cannot collide with any training index the counter can
  // reach before the top bit.
  const std::uint64_t old_eval_base = 1u << 20;
  EXPECT_NE(GnnService::eval_batch_index(0), old_eval_base);
  for (std::uint64_t b = 0; b < 4; ++b) {
    const std::uint64_t tagged = GnnService::eval_batch_index(b);
    EXPECT_GE(tagged, 1ull << 63);
    EXPECT_EQ(tagged & ~(1ull << 63), b);
  }
}

TEST(ServiceFaults, EvaluateUnaffectedByTrainingBatchCountPastOldBase) {
  // Two services, one of which has advanced its training counter past the
  // old 2^20 eval base region: evaluate() must return the same held-out
  // accuracy for both (the streams no longer share seed domain).
  GnnService a = make_service(base_options());
  GnnService b = make_service(base_options());
  EXPECT_DOUBLE_EQ(a.evaluate(2), b.evaluate(2));
}

}  // namespace
}  // namespace gt
