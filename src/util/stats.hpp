// Small statistics helpers used across evaluation harnesses: streaming
// mean/stdev, nearest-rank quantiles, CDFs (Fig 8), and geometric means
// (the paper's cross-workload averages are reported as means of
// per-workload ratios).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace gt {

/// Welford online accumulator: numerically stable mean/variance.
class OnlineStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return mean_; }
  /// Population variance (paper reports stdev of degree over all vertices).
  double variance() const noexcept;
  double stdev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Exact nearest-rank quantile of an ascending sample: the ceil(q*n)-th
/// smallest value (1-based, clamped to [1, n]), so every answer is an
/// observed value; `q` in [0, 1]. 0 when empty.
template <typename T>
double nearest_rank(const std::vector<T>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  const std::size_t rank =
      static_cast<std::size_t>(std::ceil(std::clamp(q, 0.0, 1.0) * n));
  return static_cast<double>(
      sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1]);
}

/// Empirical CDF sampled at the given x points: returns P(X <= x).
std::vector<double> empirical_cdf(const std::vector<double>& values,
                                  const std::vector<double>& at);

/// Geometric mean of strictly positive values; 0 if input empty.
double geomean(const std::vector<double>& values);

/// Arithmetic mean; 0 if empty.
double mean(const std::vector<double>& values);

/// Histogram over [0, max_value] in `bins` equal-width buckets.
std::vector<std::pair<double, std::size_t>> histogram(
    const std::vector<double>& values, std::size_t bins);

}  // namespace gt
