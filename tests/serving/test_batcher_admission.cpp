// DynamicBatcher close policy + SLO admission predicate + ServePlanner:
// every decision here is pure arithmetic over virtual ticks, so the tests
// pin exact values, not ranges.
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "serving/admission.hpp"
#include "serving/batcher.hpp"
#include "serving/planner.hpp"

namespace gt::serving {
namespace {

Request req(std::uint64_t id, Tick at) {
  Request r;
  r.id = id;
  r.arrival_tick = at;
  return r;
}

TEST(DynamicBatcher, CloseTickPolicy) {
  BatchPolicy policy;
  policy.max_batch_requests = 3;
  policy.max_wait_ticks = 100;
  DynamicBatcher b(policy);
  RequestQueue q(8);
  q.start();
  q.push(req(0, 10));

  // Waiting on more arrivals: close at oldest + max_wait, or when the
  // server lane frees — whichever is later.
  EXPECT_EQ(b.close_tick(q, /*server_free=*/5, /*more=*/true), 110u);
  EXPECT_EQ(b.close_tick(q, /*server_free=*/500, /*more=*/true), 500u);
  // Arrival stream exhausted: flush as soon as the lane frees.
  EXPECT_EQ(b.close_tick(q, /*server_free=*/5, /*more=*/false), 5u);
  // Size-triggered: a full head batch goes as soon as the lane frees.
  q.push(req(1, 20));
  q.push(req(2, 30));
  EXPECT_EQ(b.close_tick(q, /*server_free=*/5, /*more=*/true), 5u);
}

TEST(DynamicBatcher, TakeCapsAtMaxBatchInArrivalOrder) {
  BatchPolicy policy;
  policy.max_batch_requests = 2;
  DynamicBatcher b(policy);
  RequestQueue q(8);
  q.start();
  for (std::uint64_t i = 0; i < 5; ++i) q.push(req(i, i));
  std::vector<Request> out;
  b.take(q, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 0u);
  EXPECT_EQ(out[1].id, 1u);
  EXPECT_EQ(q.size(), 3u);
}

TEST(Admission, PredictedLatencyCountsWholeBatchesAhead) {
  AdmissionController a(/*slo_ticks=*/1'000, /*max_batch_requests=*/4);
  a.set_estimate(100);
  // Empty queue, free lane: the request rides the next batch.
  EXPECT_EQ(a.predicted_latency(/*now=*/0, /*server_free=*/0, 0), 100u);
  // A full batch queued ahead: two batch services before completion.
  EXPECT_EQ(a.predicted_latency(0, 0, 4), 200u);
  EXPECT_EQ(a.predicted_latency(0, 0, 8), 300u);
  // Busy lane adds the wait until it frees.
  EXPECT_EQ(a.predicted_latency(/*now=*/50, /*server_free=*/80, 0), 130u);
  // A lane already free adds nothing.
  EXPECT_EQ(a.predicted_latency(/*now=*/90, /*server_free=*/80, 0), 100u);
}

TEST(Admission, PredicateShedsPastTheDeadline) {
  AdmissionController a(/*slo_ticks=*/250, /*max_batch_requests=*/4);
  a.set_estimate(100);
  EXPECT_TRUE(a.admit(0, 0, 0));    // 100 <= 250
  EXPECT_TRUE(a.admit(0, 0, 4));    // 200 <= 250
  EXPECT_FALSE(a.admit(0, 0, 8));   // 300 > 250
  EXPECT_FALSE(a.admit(0, 260, 0)); // lane busy past the whole deadline
}

TEST(Admission, ZeroSloDisablesShedding) {
  AdmissionController a(/*slo_ticks=*/0, /*max_batch_requests=*/1);
  a.set_estimate(1'000'000);
  EXPECT_TRUE(a.admit(0, 1'000'000'000, 1'000));
}

ServeConfig planner_config() {
  ServeConfig cfg;
  cfg.arrival.kind = ArrivalKind::kPoisson;
  cfg.arrival.rate_rps = 10'000.0;  // mean gap 100 ticks
  cfg.arrival.seed = 7;
  cfg.requests = 40;
  cfg.queue_depth = 64;
  cfg.batch.max_batch_requests = 4;
  cfg.batch.max_wait_ticks = 300;
  return cfg;
}

TEST(ServePlanner, PlanReplaysBitIdentically) {
  const ServeConfig cfg = planner_config();
  ServePlanner a(cfg, /*est_batch_ticks=*/500);
  ServePlanner b(cfg, /*est_batch_ticks=*/500);
  while (true) {
    const auto ba = a.next();
    const auto bb = b.next();
    ASSERT_EQ(ba.has_value(), bb.has_value());
    if (!ba) break;
    EXPECT_EQ(ba->ordinal, bb->ordinal);
    EXPECT_EQ(ba->form_tick, bb->form_tick);
    EXPECT_EQ(ba->request_ids, bb->request_ids);
    EXPECT_EQ(ba->total_vertices, bb->total_vertices);
  }
  a.finish();
  b.finish();
  EXPECT_EQ(a.records(), b.records());
}

TEST(ServePlanner, EveryArrivalGetsExactlyOneOutcome) {
  ServeConfig cfg = planner_config();
  cfg.slo_ticks = 900;
  ServePlanner p(cfg, /*est_batch_ticks=*/400);
  std::uint64_t boarded = 0;
  while (const auto b = p.next()) {
    EXPECT_GE(b->request_ids.size(), 1u);
    EXPECT_LE(b->request_ids.size(), cfg.batch.max_batch_requests);
    boarded += b->request_ids.size();
  }
  p.finish();
  EXPECT_EQ(p.arrived(), cfg.requests);
  EXPECT_EQ(p.admitted() + p.shed_slo() + p.shed_queue_full(), p.arrived());
  EXPECT_EQ(boarded, p.admitted());
  EXPECT_EQ(p.queue_state(), Lifecycle::kStopped);
  // Shed records are final; boarded requests carry their batch ordinal.
  for (const RequestRecord& r : p.records()) {
    if (r.outcome == Outcome::kShedSlo || r.outcome == Outcome::kShedQueueFull)
      EXPECT_EQ(r.batch, RequestRecord::kNoBatch);
    else
      EXPECT_NE(r.batch, RequestRecord::kNoBatch);
  }
}

TEST(ServePlanner, TinySloShedsEverything) {
  ServeConfig cfg = planner_config();
  cfg.slo_ticks = 10;  // below one batch estimate: nothing can make it
  ServePlanner p(cfg, /*est_batch_ticks=*/500);
  EXPECT_FALSE(p.next().has_value());
  p.finish();
  EXPECT_EQ(p.shed_slo(), cfg.requests);
  EXPECT_EQ(p.admitted(), 0u);
}

TEST(ServePlanner, BoundedQueueShedsOverflowWhenBatchesCannotClose) {
  ServeConfig cfg = planner_config();
  cfg.slo_ticks = 0;          // admission never sheds
  cfg.queue_depth = 2;        // but the queue is tiny
  cfg.batch.max_batch_requests = 100;  // and nothing closes a batch early
  cfg.batch.max_wait_ticks = 100'000'000;
  ServePlanner p(cfg, /*est_batch_ticks=*/1);
  const auto b = p.next();  // flush once arrivals are exhausted
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->request_ids.size(), 2u);
  EXPECT_FALSE(p.next().has_value());
  p.finish();
  EXPECT_EQ(p.admitted(), 2u);
  EXPECT_EQ(p.shed_queue_full(), cfg.requests - 2);
}

TEST(ServePlanner, MaxWaitClosesPartialBatches) {
  ServeConfig cfg = planner_config();
  cfg.arrival.rate_rps = 1'000.0;  // mean gap 1000 ticks
  cfg.batch.max_batch_requests = 8;
  cfg.batch.max_wait_ticks = 10;   // far below the mean gap
  ServePlanner p(cfg, /*est_batch_ticks=*/5);
  std::size_t batches = 0;
  while (const auto b = p.next()) {
    ++batches;
    EXPECT_LT(b->request_ids.size(), 8u);  // deadline fires before fill
  }
  p.finish();
  EXPECT_GE(batches, cfg.requests / 2);
}

TEST(ServePlanner, ShutdownDrainsQueuedRequestsAsShedShutdown) {
  ServeConfig cfg = planner_config();
  ServePlanner p(cfg, /*est_batch_ticks=*/500);
  const auto b = p.next();  // plan one batch, then abandon it in flight
  ASSERT_TRUE(b.has_value());
  p.shutdown();
  EXPECT_EQ(p.queue_state(), Lifecycle::kStopped);
  std::uint64_t drained = 0;
  for (const RequestRecord& r : p.records())
    if (r.batch == RequestRecord::kNoBatch &&
        r.outcome == Outcome::kShedShutdown)
      ++drained;
  // The queue's survivors (not the placeholders of unarrived requests)
  // plus the riders of the abandoned batch.
  EXPECT_EQ(p.shed_shutdown(), drained - (cfg.requests - p.arrived()) +
                                   b->request_ids.size());
  for (const std::uint64_t id : b->request_ids)
    EXPECT_EQ(p.records()[id].outcome, Outcome::kShedShutdown);
  p.shutdown();  // idempotent
}

TEST(ServePlanner, RejectsUnusableConfig) {
  ServeConfig cfg = planner_config();
  cfg.batch.max_batch_requests = 0;
  EXPECT_THROW(ServePlanner(cfg, 1), std::invalid_argument);
  cfg = planner_config();
  cfg.vertices_per_request = 0;
  EXPECT_THROW(ServePlanner(cfg, 1), std::invalid_argument);
}

}  // namespace
}  // namespace gt::serving
