#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace gt {
namespace {

TEST(OnlineStats, Empty) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, KnownValues) {
  OnlineStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stdev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(NearestRank, BoundaryCases) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  // q*n <= 1 selects the smallest value, q = 0 included.
  EXPECT_DOUBLE_EQ(nearest_rank(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(nearest_rank(v, 0.2), 1.0);
  // Exact ranks, and the next rank just past one.
  EXPECT_DOUBLE_EQ(nearest_rank(v, 0.4), 2.0);
  EXPECT_DOUBLE_EQ(nearest_rank(v, 0.41), 3.0);
  EXPECT_DOUBLE_EQ(nearest_rank(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(nearest_rank(v, 0.95), 5.0);
  // q = 1 is the maximum.
  EXPECT_DOUBLE_EQ(nearest_rank(v, 1.0), 5.0);
  // n = 1: every quantile is the one observation.
  EXPECT_DOUBLE_EQ(nearest_rank(std::vector<double>{7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(nearest_rank(std::vector<double>{7.0}, 0.99), 7.0);
  // Empty input.
  EXPECT_DOUBLE_EQ(nearest_rank(std::vector<double>{}, 0.5), 0.0);
  // Integer ticks come back as the observed value, not an interpolation.
  const std::vector<std::uint64_t> ticks{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(nearest_rank(ticks, 0.5), 20.0);
  EXPECT_DOUBLE_EQ(nearest_rank(ticks, 0.99), 40.0);
}

TEST(Percentile, EndpointsAndMedian) {
  // Even n: the median is the lower middle observation, not the midpoint
  // an interpolating percentile would return (2.5).
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(nearest_rank(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(nearest_rank(v, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(nearest_rank(v, 1.0), 4.0);
  // Out-of-range q clamps to the endpoints.
  EXPECT_DOUBLE_EQ(nearest_rank(v, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(nearest_rank(v, 1.5), 4.0);
}

TEST(Percentile, EmptyIsZero) {
  for (double q : {0.0, 0.5, 1.0}) {
    EXPECT_DOUBLE_EQ(nearest_rank(std::vector<double>{}, q), 0.0);
    EXPECT_DOUBLE_EQ(nearest_rank(std::vector<std::uint64_t>{}, q), 0.0);
  }
}

TEST(Cdf, MonotoneAndBounded) {
  std::vector<double> values{1, 2, 2, 3, 10};
  std::vector<double> at{0, 1, 2, 5, 10, 20};
  auto cdf = empirical_cdf(values, at);
  ASSERT_EQ(cdf.size(), at.size());
  EXPECT_DOUBLE_EQ(cdf[0], 0.0);
  EXPECT_DOUBLE_EQ(cdf[1], 0.2);
  EXPECT_DOUBLE_EQ(cdf[2], 0.6);
  EXPECT_DOUBLE_EQ(cdf[3], 0.8);
  EXPECT_DOUBLE_EQ(cdf[4], 1.0);
  EXPECT_DOUBLE_EQ(cdf[5], 1.0);
  for (std::size_t i = 1; i < cdf.size(); ++i) EXPECT_GE(cdf[i], cdf[i - 1]);
}

TEST(Geomean, Known) {
  EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Mean, Known) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Histogram, CountsSumToN) {
  std::vector<double> v{0.1, 0.5, 0.9, 1.5, 2.5, 2.9};
  auto h = histogram(v, 3);
  ASSERT_EQ(h.size(), 3u);
  std::size_t total = 0;
  for (const auto& [edge, count] : h) total += count;
  EXPECT_EQ(total, v.size());
  // Max value lands in the last bucket.
  EXPECT_GE(h.back().second, 1u);
}

}  // namespace
}  // namespace gt
