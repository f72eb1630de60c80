// GnnService::serve(): the online front end must produce an
// admitted/shed/outcome stream that is a pure function of the serve
// configuration — bit-identical across worker counts, with and without
// injected faults — plus the backoff saturation regression the serving
// path surfaced (a 64-bit shift wrapped the virtual backoff to zero).
#include "core/graphtensor.hpp"

#include <cstdint>
#include <limits>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"

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

serving::ServeConfig base_serve(std::size_t requests = 32) {
  serving::ServeConfig cfg;
  cfg.arrival.kind = serving::ArrivalKind::kPoisson;
  cfg.arrival.rate_rps = 2'000.0;
  cfg.arrival.seed = 42;
  cfg.requests = requests;
  cfg.vertices_per_request = 16;
  cfg.batch.max_batch_requests = 4;
  cfg.batch.max_wait_ticks = 1'500;
  cfg.queue_depth = 64;
  return cfg;
}

void expect_reports_equal(const serving::ServeReport& a,
                          const serving::ServeReport& b) {
  EXPECT_EQ(a.arrived, b.arrived);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.shed_slo, b.shed_slo);
  EXPECT_EQ(a.shed_queue_full, b.shed_queue_full);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.span_ticks, b.span_ticks);
  EXPECT_DOUBLE_EQ(a.p50_latency_ticks, b.p50_latency_ticks);
  EXPECT_DOUBLE_EQ(a.p95_latency_ticks, b.p95_latency_ticks);
  EXPECT_DOUBLE_EQ(a.p99_latency_ticks, b.p99_latency_ticks);
  EXPECT_EQ(a.goodput_requests, b.goodput_requests);
  EXPECT_DOUBLE_EQ(a.goodput_rps, b.goodput_rps);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_TRUE(a.records[i] == b.records[i]);
  }
}

// --- Report integrity ---------------------------------------------------------

TEST(ServiceServing, UnloadedRunCompletesEveryRequest) {
  GnnService service = make_service(base_options());
  const serving::ServeReport rep = service.serve(base_serve());
  EXPECT_EQ(rep.arrived, 32u);
  EXPECT_EQ(rep.admitted, 32u);  // slo 0: nothing sheds
  EXPECT_EQ(rep.completed, 32u);
  EXPECT_EQ(rep.shed(), 0u);
  EXPECT_EQ(rep.degraded, 0u);
  EXPECT_GT(rep.batches, 0u);
  EXPECT_GT(rep.span_ticks, 0u);
  ASSERT_EQ(rep.records.size(), 32u);
  for (const serving::RequestRecord& r : rep.records) {
    EXPECT_EQ(r.outcome, serving::Outcome::kCompleted);
    EXPECT_GT(r.latency_ticks, 0u);
    EXPECT_NE(r.batch, serving::RequestRecord::kNoBatch);
  }
  EXPECT_GE(rep.p95_latency_ticks, rep.p50_latency_ticks);
  EXPECT_GE(rep.p99_latency_ticks, rep.p95_latency_ticks);
  // slo 0: every completion is goodput.
  EXPECT_EQ(rep.goodput_requests, rep.completed);
  EXPECT_GT(rep.goodput_rps, 0.0);
  EXPECT_GT(rep.mean_batch_fill, 0.0);
  EXPECT_LE(rep.mean_batch_fill, 1.0);
}

// --- Worker-count invariance (the tentpole determinism guarantee) -------------

TEST(ServiceServing, OutcomeStreamInvariantAcrossWorkerCounts) {
  const serving::ServeConfig cfg = base_serve(48);
  ServiceOptions opt = base_options();
  opt.workers = 1;
  const serving::ServeReport r1 = make_service(opt).serve(cfg);
  opt.workers = 4;
  const serving::ServeReport r4 = make_service(opt).serve(cfg);
  opt.workers = 8;
  const serving::ServeReport r8 = make_service(opt).serve(cfg);
  expect_reports_equal(r1, r4);
  expect_reports_equal(r1, r8);
}

TEST(ServiceServing, SloSheddingIsWorkerInvariant) {
  serving::ServeConfig cfg = base_serve(48);
  cfg.arrival.kind = serving::ArrivalKind::kBursty;
  cfg.arrival.rate_rps = 20'000.0;
  cfg.slo_ticks = 8'000;
  ServiceOptions opt = base_options();
  opt.workers = 1;
  const serving::ServeReport r1 = make_service(opt).serve(cfg);
  opt.workers = 4;
  const serving::ServeReport r4 = make_service(opt).serve(cfg);
  EXPECT_GT(r1.shed_slo, 0u);  // the burst actually overloads the lane
  expect_reports_equal(r1, r4);
}

// --- Chaos under load ---------------------------------------------------------

// A transient kernel fault mid-burst is retried into the same priced
// report, so the admitted-request outcome stream must equal the
// fault-free stream — at every worker count. (Warm-up consumes batch
// index 0; batch=3 lands mid-serving-stream.)
TEST(ServiceServing, TransientFaultMidBurstMatchesFaultFreeStream) {
  serving::ServeConfig cfg = base_serve(48);
  cfg.arrival.kind = serving::ArrivalKind::kBursty;
  cfg.arrival.rate_rps = 8'000.0;
  cfg.slo_ticks = 50'000;
  const serving::ServeReport clean = make_service(base_options()).serve(cfg);
  ASSERT_GT(clean.batches, 3u);  // the faulted batch exists
  for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(workers);
    ServiceOptions opt = base_options();
    opt.workers = workers;
    opt.fault_spec = "gpusim.kernel@batch=3";
    GnnService faulted = make_service(opt);
    const serving::ServeReport rep = faulted.serve(cfg);
    ASSERT_EQ(faulted.fault_plan()->injected(), 1u);
    EXPECT_GT(faulted.virtual_backoff_ticks(), 0u);
    expect_reports_equal(clean, rep);
  }
}

// Past the retry budget the batch degrades: its requests must come back
// kDegraded (fast negative answers), everything else completes, and the
// whole stream stays worker-invariant.
TEST(ServiceServing, PersistentFaultDegradesOneBatchWorkerInvariantly) {
  serving::ServeConfig cfg = base_serve(32);
  ServiceOptions opt = base_options();
  opt.workers = 1;
  opt.fault_spec = "gpusim.kernel@batch=2:always";
  const serving::ServeReport r1 = make_service(opt).serve(cfg);
  opt.workers = 4;
  opt.fault_spec = "gpusim.kernel@batch=2:always";
  const serving::ServeReport r4 = make_service(opt).serve(cfg);

  EXPECT_GT(r1.degraded, 0u);
  EXPECT_EQ(r1.completed + r1.degraded, r1.admitted);
  std::uint64_t degraded_records = 0;
  for (const serving::RequestRecord& r : r1.records) {
    if (r.outcome == serving::Outcome::kDegraded) {
      ++degraded_records;
      EXPECT_EQ(r.latency_ticks, 0u);
      EXPECT_NE(r.batch, serving::RequestRecord::kNoBatch);
    }
  }
  EXPECT_EQ(degraded_records, r1.degraded);
  expect_reports_equal(r1, r4);
}

// An abort mid-serve unwinds through the ring. Every admitted request must
// still end in exactly one counter: the queued ones, the aborted batch's
// riders, and the riders of batches planned ahead but never executed all
// count as shed_shutdown. (Only the queue used to drain into that counter,
// leaving 4 of 48 admitted requests uncounted at one worker and 16 at
// four.)
TEST(ServiceServing, AbortMidServeAccountsEveryAdmittedRequest) {
  serving::ServeConfig cfg = base_serve(48);
  cfg.arrival.kind = serving::ArrivalKind::kBursty;
  cfg.arrival.rate_rps = 20'000.0;
  auto counters = [] {
    std::map<std::string, std::uint64_t> v;
    for (const char* name :
         {"arrived", "admitted", "shed_slo", "shed_queue_full",
          "shed_shutdown", "completed", "degraded"})
      v[name] = obs::metrics()
                    .counter(std::string("serving.requests.") + name)
                    .value();
    return v;
  };
  for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(workers);
    ServiceOptions opt = base_options();
    opt.workers = workers;
    opt.fault_spec = "gpusim.kernel@batch=3:kind=abort";
    GnnService service = make_service(opt);
    std::map<std::string, std::uint64_t> d = counters();
    EXPECT_THROW(service.serve(cfg), fault::InjectedFault);
    for (auto& [name, value] : counters()) d[name] = value - d[name];
    EXPECT_GT(d["admitted"], 0u);
    EXPECT_GT(d["shed_shutdown"], 0u);
    EXPECT_EQ(d["completed"] + d["degraded"] + d["shed_shutdown"],
              d["admitted"]);
    EXPECT_EQ(d["admitted"] + d["shed_slo"] + d["shed_queue_full"],
              d["arrived"]);

    // The abort entry fired once and disarmed; the quarantined ring must
    // serve the next run in full.
    const serving::ServeReport rep = service.serve(cfg);
    EXPECT_EQ(rep.arrived, 48u);
    EXPECT_GT(rep.admitted, 0u);
    EXPECT_EQ(rep.completed, rep.admitted);
    EXPECT_EQ(rep.degraded, 0u);
  }
}

TEST(ServiceServing, OverloadShedsInsteadOfStalling) {
  serving::ServeConfig cfg = base_serve(64);
  cfg.arrival.kind = serving::ArrivalKind::kBursty;
  cfg.arrival.rate_rps = 50'000.0;  // far past one lane's service rate
  cfg.slo_ticks = 6'000;
  cfg.queue_depth = 8;
  const serving::ServeReport rep = make_service(base_options()).serve(cfg);
  EXPECT_EQ(rep.arrived, 64u);
  EXPECT_GT(rep.shed(), 0u);
  EXPECT_GT(rep.shed_rate(), 0.0);
  EXPECT_EQ(rep.completed + rep.degraded + rep.shed(), rep.arrived);
}

TEST(ServiceServing, ServeRejectsUnusableConfig) {
  GnnService service = make_service(base_options());
  serving::ServeConfig cfg = base_serve();
  cfg.batch.max_batch_requests = 0;
  EXPECT_THROW(service.serve(cfg), std::invalid_argument);
  cfg = base_serve();
  cfg.arrival.rate_rps = 0.0;
  EXPECT_THROW(service.serve(cfg), std::invalid_argument);
}

// --- Backoff saturation (satellite bugfix) ------------------------------------
// backoff_for used to compute `base << (attempt - 1)` with no shift guard:
// attempt 65 was UB, and large bases wrapped to tiny (or zero) waits, so a
// retry storm consumed no virtual time. The saturating helpers clamp at
// UINT64_MAX before the cap.

TEST(ServiceServing, SaturatingBackoffClampsInsteadOfWrapping) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  // base 0: no backoff at any attempt, including the shift-UB region.
  EXPECT_EQ(detail::saturating_backoff(0, 1, kMax), 0u);
  EXPECT_EQ(detail::saturating_backoff(0, 100, kMax), 0u);
  // Small attempts: exact exponential, capped.
  EXPECT_EQ(detail::saturating_backoff(1, 1, kMax), 1u);
  EXPECT_EQ(detail::saturating_backoff(1, 4, kMax), 8u);
  EXPECT_EQ(detail::saturating_backoff(1, 4, 5), 5u);
  // Attempt 64 shifts by 63: the last representable power of two.
  EXPECT_EQ(detail::saturating_backoff(1, 64, kMax), 1ull << 63);
  // Attempt 65 would shift by 64 (UB on the raw expression): saturate.
  EXPECT_EQ(detail::saturating_backoff(1, 65, kMax), kMax);
  EXPECT_EQ(detail::saturating_backoff(1, 200, 64), 64u);
  // A huge base overflows on the very first doubling: saturate, not wrap.
  EXPECT_EQ(detail::saturating_backoff(1ull << 62, 3, kMax), kMax);
  EXPECT_EQ(detail::saturating_backoff(3ull << 62, 2, kMax), kMax);
}

TEST(ServiceServing, SaturatingAddClampsAtMax) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(detail::saturating_add(1, 2), 3u);
  EXPECT_EQ(detail::saturating_add(kMax, 0), kMax);
  EXPECT_EQ(detail::saturating_add(kMax, 1), kMax);
  EXPECT_EQ(detail::saturating_add(kMax - 1, 5), kMax);
}

// End-to-end regression: a retry storm with a massive backoff base must
// pin the virtual backoff accumulators at UINT64_MAX instead of wrapping
// through zero (the old `1 << 62 << 1` wrapped to 0 on retry 2).
TEST(ServiceServing, RetryStormSaturatesVirtualBackoffAccumulators) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  ServiceOptions opt = base_options();
  opt.fault_spec = "gpusim.kernel@batch=1:times=3";
  opt.backoff_base_ticks = 1ull << 62;
  opt.backoff_max_ticks = kMax;
  GnnService service = make_service(opt);
  const auto reports = service.train_batches(2);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_TRUE(reports[1].ok());
  EXPECT_EQ(reports[1].retries, 3u);
  // Waits: 2^62, 2^63, saturate -> the sum saturates too.
  EXPECT_EQ(reports[1].backoff_ticks, kMax);
  EXPECT_EQ(service.virtual_backoff_ticks(), kMax);
}

}  // namespace
}  // namespace gt
