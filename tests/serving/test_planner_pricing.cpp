// ServePlanner's measured-clock pricing (complete) and report assembly
// (report), without a service: each test hands in chosen e2e values and
// checks the lane arithmetic and the summary against values worked out by
// hand from the plan's form ticks and the riders' arrival ticks.
#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "serving/planner.hpp"

namespace gt::serving {
namespace {

// A sparse schedule (mean gap 10,000 ticks) served one request per batch:
// with an estimate far below every gap, each batch forms at its rider's
// arrival on an idle predicted lane. Every test asserts that premise for
// the gaps its arithmetic relies on.
ServeConfig sparse_config(std::size_t requests) {
  ServeConfig cfg;
  cfg.arrival.kind = ArrivalKind::kPoisson;
  cfg.arrival.rate_rps = 100.0;
  cfg.arrival.seed = 11;
  cfg.requests = requests;
  cfg.batch.max_batch_requests = 1;
  return cfg;
}

constexpr Tick kEst = 50;

std::vector<PlannedBatch> plan_all(ServePlanner& p) {
  std::vector<PlannedBatch> plan;
  while (const auto b = p.next()) plan.push_back(*b);
  p.finish();
  return plan;
}

// Every batch carries one rider and forms at its arrival, and the next
// batch forms more than `gap` ticks after it.
void assert_sparse(const ServePlanner& p, const std::vector<PlannedBatch>& plan,
                   Tick gap) {
  for (std::size_t i = 0; i < plan.size(); ++i) {
    ASSERT_EQ(plan[i].request_ids.size(), 1u);
    ASSERT_EQ(plan[i].form_tick,
              p.records()[plan[i].request_ids[0]].arrival_tick);
    if (i > 0) {
      ASSERT_GT(plan[i].form_tick, plan[i - 1].form_tick + gap);
    }
  }
}

TEST(ServePlannerPricing, IdleLaneWaitsForTheFormTick) {
  ServePlanner p(sparse_config(2), kEst);
  const std::vector<PlannedBatch> plan = plan_all(p);
  ASSERT_EQ(plan.size(), 2u);
  ASSERT_NO_FATAL_FAILURE(assert_sparse(p, plan, 120));
  // Batch 0 starts at its form tick on a lane that was never busy.
  const PlannedBatch b0 = p.complete(true, 120.0);
  EXPECT_EQ(b0.ordinal, 0u);
  EXPECT_EQ(b0.request_ids, plan[0].request_ids);
  EXPECT_EQ(p.records()[0].outcome, Outcome::kCompleted);
  EXPECT_EQ(p.records()[0].latency_ticks, 120u);
  // Batch 0 freed the lane long before batch 1 formed: batch 1 starts at
  // its own form tick, so its latency is its duration alone.
  EXPECT_EQ(p.complete(true, 80.0).ordinal, 1u);
  EXPECT_EQ(p.records()[1].outcome, Outcome::kCompleted);
  EXPECT_EQ(p.records()[1].latency_ticks, 80u);
}

TEST(ServePlannerPricing, BusyLaneQueuesTheNextBatch) {
  ServePlanner p(sparse_config(2), kEst);
  const std::vector<PlannedBatch> plan = plan_all(p);
  ASSERT_EQ(plan.size(), 2u);
  ASSERT_NO_FATAL_FAILURE(assert_sparse(p, plan, 0));
  p.complete(true, 1'000'000.0);  // the lane stays busy past batch 1's form
  ASSERT_LT(plan[1].form_tick, plan[0].form_tick + 1'000'000);
  p.complete(true, 30.0);
  // Batch 1 starts when the lane frees at form0 + 1e6, not at its form.
  EXPECT_EQ(p.records()[1].latency_ticks,
            plan[0].form_tick + 1'000'030 - p.records()[1].arrival_tick);
}

TEST(ServePlannerPricing, DurationRoundsToTheNearestTickWithAMinimumOfOne) {
  const double e2e[] = {0.0, 0.2, 2.5, 7.49, 7.5};
  const Tick held[] = {1, 1, 3, 7, 8};
  ServePlanner p(sparse_config(5), kEst);
  const std::vector<PlannedBatch> plan = plan_all(p);
  ASSERT_EQ(plan.size(), 5u);
  ASSERT_NO_FATAL_FAILURE(assert_sparse(p, plan, kEst));
  for (std::size_t i = 0; i < plan.size(); ++i) {
    p.complete(true, e2e[i]);
    EXPECT_EQ(p.records()[i].latency_ticks, held[i]) << "e2e " << e2e[i];
  }
}

TEST(ServePlannerPricing, DegradedBatchHoldsTheLaneForOneEstimate) {
  ServePlanner p(sparse_config(3), kEst);
  const std::vector<PlannedBatch> plan = plan_all(p);
  ASSERT_EQ(plan.size(), 3u);
  ASSERT_NO_FATAL_FAILURE(assert_sparse(p, plan, 0));
  p.complete(true, 1'000'000.0);  // batches 1 and 2 queue behind batch 0
  ASSERT_LT(plan[2].form_tick, plan[0].form_tick + 1'000'000);
  // A degraded batch ignores its e2e and holds the lane for the estimate.
  EXPECT_EQ(p.complete(false, 5.0).ordinal, 1u);
  EXPECT_EQ(p.records()[1].outcome, Outcome::kDegraded);
  EXPECT_EQ(p.records()[1].latency_ticks, 0u);
  p.complete(true, 10.0);
  EXPECT_EQ(p.records()[2].latency_ticks,
            plan[0].form_tick + 1'000'000 + kEst + 10 -
                p.records()[2].arrival_tick);
}

TEST(ServePlannerPricing, CompleteWithNothingInFlightThrows) {
  ServePlanner p(sparse_config(1), kEst);
  EXPECT_THROW(p.complete(true, 1.0), std::logic_error);
  ASSERT_EQ(plan_all(p).size(), 1u);
  p.complete(true, 1.0);
  EXPECT_THROW(p.complete(true, 1.0), std::logic_error);
}

// Five single-rider batches of a two-request policy (max_wait 0 closes
// each batch as its rider arrives), priced with e2e 40, 10, 30, 20 and a
// degraded fifth batch. The estimate is 5 ticks.
struct PricedRun {
  ServeReport rep;
  Tick first_arrival = 0;
  Tick last_arrival = 0;
};

void priced_run(Tick slo_ticks, PricedRun& run) {
  ServeConfig cfg = sparse_config(5);
  cfg.batch.max_batch_requests = 2;
  cfg.batch.max_wait_ticks = 0;
  cfg.slo_ticks = slo_ticks;
  ServePlanner p(cfg, /*est_batch_ticks=*/5);
  const std::vector<PlannedBatch> plan = plan_all(p);
  ASSERT_EQ(p.admitted(), 5u);
  ASSERT_EQ(plan.size(), 5u);
  ASSERT_NO_FATAL_FAILURE(assert_sparse(p, plan, 40));
  for (const double e2e : {40.0, 10.0, 30.0, 20.0}) p.complete(true, e2e);
  p.complete(false, 0.0);
  run.first_arrival = p.records().front().arrival_tick;
  run.last_arrival = p.records().back().arrival_tick;
  run.rep = p.report();
}

TEST(ServePlannerReport, FieldsMatchHandComputedValues) {
  PricedRun run;
  ASSERT_NO_FATAL_FAILURE(priced_run(/*slo_ticks=*/0, run));
  const ServeReport& rep = run.rep;
  EXPECT_EQ(rep.arrived, 5u);
  EXPECT_EQ(rep.admitted, 5u);
  EXPECT_EQ(rep.completed, 4u);
  EXPECT_EQ(rep.degraded, 1u);
  EXPECT_EQ(rep.shed(), 0u);
  EXPECT_EQ(rep.batches, 5u);
  EXPECT_DOUBLE_EQ(rep.mean_batch_fill, 5.0 / (5.0 * 2.0));
  // The degraded last batch holds the lane for the 5-tick estimate after
  // its rider arrived: the span ends there.
  EXPECT_EQ(rep.span_ticks, run.last_arrival + 5 - run.first_arrival);
  // Completed latencies {10, 20, 30, 40}: nearest ranks 2, 4 and 4.
  EXPECT_EQ(rep.p50_latency_ticks, 20.0);
  EXPECT_EQ(rep.p95_latency_ticks, 40.0);
  EXPECT_EQ(rep.p99_latency_ticks, 40.0);
  // No SLO: every completion counts as goodput.
  EXPECT_EQ(rep.goodput_requests, 4u);
  EXPECT_DOUBLE_EQ(rep.goodput_rps,
                   4.0 * 1e6 / static_cast<double>(rep.span_ticks));
  ASSERT_EQ(rep.records.size(), 5u);
  EXPECT_EQ(rep.records[0].latency_ticks, 40u);
  EXPECT_EQ(rep.records[4].outcome, Outcome::kDegraded);
}

TEST(ServePlannerReport, GoodputCountsOnlyCompletionsWithinTheSlo) {
  PricedRun run;
  ASSERT_NO_FATAL_FAILURE(priced_run(/*slo_ticks=*/25, run));
  const ServeReport& rep = run.rep;
  EXPECT_EQ(rep.completed, 4u);
  EXPECT_EQ(rep.goodput_requests, 2u);  // latencies 10 and 20
  EXPECT_DOUBLE_EQ(rep.goodput_rps,
                   2.0 * 1e6 / static_cast<double>(rep.span_ticks));
}

TEST(ServePlannerReport, EmptyRunReportsZeros) {
  ServeConfig cfg = sparse_config(4);
  cfg.slo_ticks = 10;  // below the estimate: everything sheds
  ServePlanner p(cfg, kEst);
  EXPECT_TRUE(plan_all(p).empty());
  const Tick first_arrival = p.records().front().arrival_tick;
  const Tick last_arrival = p.records().back().arrival_tick;
  const ServeReport rep = p.report();
  EXPECT_EQ(rep.shed_slo, 4u);
  EXPECT_EQ(rep.batches, 0u);
  // The lane never ran: the span ends at the last (shed) arrival.
  EXPECT_EQ(rep.span_ticks, last_arrival - first_arrival);
  EXPECT_EQ(rep.mean_batch_fill, 0.0);
  EXPECT_EQ(rep.p99_latency_ticks, 0.0);
  EXPECT_EQ(rep.goodput_requests, 0u);
}

TEST(ServePlanner, ShutdownShedsTheRidersOfUnpricedBatches) {
  // Arrivals every ~100 ticks against a 500-tick estimate: requests pile
  // up in the queue while the planned batches are in flight.
  ServeConfig cfg = sparse_config(20);
  cfg.arrival.rate_rps = 10'000.0;
  ServePlanner p(cfg, /*est_batch_ticks=*/500);
  const auto b0 = p.next();
  const auto b1 = p.next();
  ASSERT_TRUE(b0 && b1);
  p.complete(true, 10.0);  // b0 executed; b1 never does
  const std::size_t queued = p.queue_size();
  ASSERT_GT(queued, 0u);
  p.shutdown();
  for (const std::uint64_t id : b0->request_ids)
    EXPECT_EQ(p.records()[id].outcome, Outcome::kCompleted);
  for (const std::uint64_t id : b1->request_ids)
    EXPECT_EQ(p.records()[id].outcome, Outcome::kShedShutdown);
  EXPECT_EQ(p.shed_shutdown(), queued + b1->request_ids.size());
  EXPECT_EQ(p.completed() + p.shed_shutdown(), p.admitted());
  // Nothing is left in flight to price.
  EXPECT_THROW(p.complete(true, 1.0), std::logic_error);
}

}  // namespace
}  // namespace gt::serving
