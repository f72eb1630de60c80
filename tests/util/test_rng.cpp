#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

namespace gt {
namespace {

TEST(Rng, SameSeedSameStream) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(123), b(124);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformRespectsBound) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform(bound), bound);
  }
}

TEST(Rng, UniformCoversRange) {
  Xoshiro256 rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformRealInUnitInterval) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform_real();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NormalHasRoughlyZeroMeanUnitVar) {
  Xoshiro256 rng(99);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(Rng, JumpProducesIndependentStream) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  b.jump();
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Xoshiro256 rng(3);
  for (std::uint64_t n : {10ull, 100ull, 1000ull}) {
    auto sample = sample_without_replacement(rng, n, n / 2);
    std::unordered_set<std::uint64_t> set(sample.begin(), sample.end());
    EXPECT_EQ(set.size(), sample.size());
    EXPECT_EQ(sample.size(), n / 2);
    for (auto v : sample) EXPECT_LT(v, n);
  }
}

TEST(Rng, SampleWithoutReplacementReturnsAllWhenKGeqN) {
  Xoshiro256 rng(3);
  auto sample = sample_without_replacement(rng, 5, 9);
  EXPECT_EQ(sample.size(), 5u);
  std::unordered_set<std::uint64_t> set(sample.begin(), sample.end());
  EXPECT_EQ(set.size(), 5u);
}

TEST(Rng, SampleIntoMatchesHashSetFloydExactly) {
  // Reference: Floyd's algorithm with an explicit hash set. The reusing
  // variant must emit the same values in the same order, and consume the
  // same draws, for fanout-sized and batch-sized k alike.
  auto floyd = [](Xoshiro256& rng, std::uint64_t n, std::uint64_t k) {
    std::vector<std::uint64_t> out;
    std::unordered_set<std::uint64_t> chosen;
    for (std::uint64_t j = n - k; j < n; ++j) {
      const std::uint64_t t = rng.uniform(j + 1);
      out.push_back(chosen.insert(t).second ? t : j);
      chosen.insert(out.back());
    }
    return out;
  };
  std::vector<std::uint64_t> out;
  for (std::uint64_t k : {1ull, 2ull, 10ull, 25ull, 64ull, 65ull, 300ull}) {
    for (std::uint64_t n : {k + 1, 2 * k, 3 * k + 7, 50 * k}) {
      Xoshiro256 a(k * 1000 + n), b(k * 1000 + n);
      sample_without_replacement_into(a, n, k, out);
      EXPECT_EQ(out, floyd(b, n, k)) << "n " << n << " k " << k;
      EXPECT_EQ(a.next(), b.next()) << "n " << n << " k " << k;
    }
  }
}

TEST(Rng, DeriveSeedDistinctStreams) {
  std::unordered_set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 100; ++i) seeds.insert(derive_seed(42, i));
  EXPECT_EQ(seeds.size(), 100u);
}

class RngBoundSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBoundSweep, MeanNearHalfBound) {
  const std::uint64_t bound = GetParam();
  Xoshiro256 rng(bound);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.uniform(bound));
  const double expected = static_cast<double>(bound - 1) / 2.0;
  EXPECT_NEAR(sum / n, expected, 0.05 * static_cast<double>(bound) + 0.5);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundSweep,
                         ::testing::Values(2, 3, 10, 100, 12345));

}  // namespace
}  // namespace gt
