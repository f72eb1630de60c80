#include "util/thread_pool.hpp"

#include <gtest/gtest.h>


#include <algorithm>
#include <array>
#include <atomic>
#include <mutex>
#include <numeric>
#include <vector>

namespace gt {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i)
    futures.push_back(pool.submit([&counter] { ++counter; }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ReturnsValues) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, WaitIdleDrainsQueue) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) pool.submit([&counter] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, ExceptionsPropagateThroughFuture) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  ThreadPool pool(4);
  std::vector<int> data(10000);
  std::iota(data.begin(), data.end(), 1);
  std::vector<std::future<long>> parts;
  const std::size_t chunk = 1000;
  for (std::size_t start = 0; start < data.size(); start += chunk) {
    parts.push_back(pool.submit([&data, start, chunk] {
      long s = 0;
      for (std::size_t i = start; i < start + chunk; ++i) s += data[i];
      return s;
    }));
  }
  long total = 0;
  for (auto& p : parts) total += p.get();
  EXPECT_EQ(total, 10000L * 10001L / 2L);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), 7,
                    [&](std::size_t, std::size_t lo, std::size_t hi) {
                      for (std::size_t i = lo; i < hi; ++i) ++hits[i];
                    });
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForChunkBoundariesAreDeterministic) {
  // The boundaries must be the pure ceil-division split the hand-rolled
  // fan-out loops used, so chunked algorithms keep bit-identical results.
  ThreadPool pool(3);
  std::mutex mu;
  std::vector<std::array<std::size_t, 3>> seen;
  pool.parallel_for(10, 55, 4,
                    [&](std::size_t c, std::size_t lo, std::size_t hi) {
                      std::lock_guard lock(mu);
                      seen.push_back({c, lo, hi});
                    });
  std::sort(seen.begin(), seen.end());
  const std::vector<std::array<std::size_t, 3>> expected{
      {0, 10, 22}, {1, 22, 34}, {2, 34, 46}, {3, 46, 55}};
  EXPECT_EQ(seen, expected);
}

TEST(ThreadPool, ParallelForEmptyRangeRunsNothing) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, 4,
                    [&](std::size_t, std::size_t, std::size_t) { ++calls; });
  pool.parallel_for(7, 3, 4,
                    [&](std::size_t, std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ParallelForClampsChunksToRangeSize) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::array<std::size_t, 3>> seen;
  pool.parallel_for(0, 3, 16,
                    [&](std::size_t c, std::size_t lo, std::size_t hi) {
                      std::lock_guard lock(mu);
                      seen.push_back({c, lo, hi});
                    });
  std::sort(seen.begin(), seen.end());
  const std::vector<std::array<std::size_t, 3>> expected{
      {0, 0, 1}, {1, 1, 2}, {2, 2, 3}};
  EXPECT_EQ(seen, expected);
}

TEST(ThreadPool, ParallelForRethrowsFirstChunkFailure) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(0, 8, 4,
                        [&](std::size_t c, std::size_t, std::size_t) {
                          if (c == 1) throw std::runtime_error("chunk boom");
                          ++completed;
                        }),
      std::runtime_error);
  // All other chunks still ran to completion before the rethrow.
  EXPECT_EQ(completed.load(), 3);
}

}  // namespace
}  // namespace gt
