// RequestQueue lifecycle (pipeline_base-style state machine) and bounded
// FIFO semantics: overflow is a shed signal, not an error, and teardown
// must leave the queue stopped and empty.
#include "serving/request_queue.hpp"

#include <stdexcept>

#include <gtest/gtest.h>

namespace gt::serving {
namespace {

Request req(std::uint64_t id, Tick at) {
  Request r;
  r.id = id;
  r.arrival_tick = at;
  return r;
}

TEST(RequestQueue, LifecycleHappyPath) {
  RequestQueue q(4);
  EXPECT_EQ(q.state(), Lifecycle::kInitial);
  EXPECT_FALSE(q.started());
  q.start();
  EXPECT_EQ(q.state(), Lifecycle::kStarted);
  EXPECT_TRUE(q.started());
  q.drain();
  EXPECT_EQ(q.state(), Lifecycle::kStopped);
  EXPECT_TRUE(q.stopped());
}

TEST(RequestQueue, PushRequiresStarted) {
  RequestQueue q(4);
  EXPECT_THROW(q.push(req(0, 0)), std::logic_error);
  q.start();
  EXPECT_TRUE(q.push(req(0, 0)));
  q.drain();
  EXPECT_THROW(q.push(req(1, 1)), std::logic_error);
}

TEST(RequestQueue, CannotRestartOrDrainFromInitial) {
  RequestQueue q(4);
  EXPECT_THROW(q.drain(), std::logic_error);  // never started
  q.start();
  EXPECT_THROW(q.start(), std::logic_error);  // double start
  q.drain();
  EXPECT_THROW(q.start(), std::logic_error);  // restart after stop
}

TEST(RequestQueue, DrainReturnsRemainingInArrivalOrderAndIsIdempotent) {
  RequestQueue q(4);
  q.start();
  q.push(req(7, 10));
  q.push(req(8, 20));
  q.push(req(9, 30));
  (void)q.pop();  // 7 boards a batch
  const auto remaining = q.drain();
  ASSERT_EQ(remaining.size(), 2u);
  EXPECT_EQ(remaining[0].id, 8u);
  EXPECT_EQ(remaining[1].id, 9u);
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.drain().empty());  // second drain: stopped, no-op
}

TEST(RequestQueue, OverflowShedsWithoutThrowing) {
  RequestQueue q(2);
  q.start();
  EXPECT_TRUE(q.push(req(0, 0)));
  EXPECT_TRUE(q.push(req(1, 1)));
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.push(req(2, 2)));  // shed, queue unchanged
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.front().id, 0u);
}

TEST(RequestQueue, FifoOrderAndPeakTracking) {
  RequestQueue q(8);
  q.start();
  for (std::uint64_t i = 0; i < 5; ++i) q.push(req(i, i * 10));
  EXPECT_EQ(q.peak_size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(q.pop().id, i);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.peak_size(), 5u);  // peak survives the drawdown
}

TEST(RequestQueue, ZeroCapacityShedsEverything) {
  RequestQueue q(0);
  q.start();
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.push(req(0, 0)));
}

}  // namespace
}  // namespace gt::serving
