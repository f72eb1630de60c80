#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace gt {

void OnlineStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const noexcept {
  return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
}

double OnlineStats::stdev() const noexcept { return std::sqrt(variance()); }

std::vector<double> empirical_cdf(const std::vector<double>& values,
                                  const std::vector<double>& at) {
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> out;
  out.reserve(at.size());
  for (double x : at) {
    auto it = std::upper_bound(sorted.begin(), sorted.end(), x);
    out.push_back(sorted.empty()
                      ? 0.0
                      : static_cast<double>(it - sorted.begin()) /
                            static_cast<double>(sorted.size()));
  }
  return out;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double s = 0.0;
  for (double v : values) s += v;
  return s / static_cast<double>(values.size());
}

std::vector<std::pair<double, std::size_t>> histogram(
    const std::vector<double>& values, std::size_t bins) {
  std::vector<std::pair<double, std::size_t>> out;
  if (values.empty() || bins == 0) return out;
  const double max_v = *std::max_element(values.begin(), values.end());
  const double width = max_v > 0 ? max_v / static_cast<double>(bins) : 1.0;
  out.resize(bins, {0.0, 0});
  for (std::size_t b = 0; b < bins; ++b)
    out[b].first = width * static_cast<double>(b + 1);
  for (double v : values) {
    std::size_t b = width > 0 ? static_cast<std::size_t>(v / width) : 0;
    if (b >= bins) b = bins - 1;
    ++out[b].second;
  }
  return out;
}

}  // namespace gt
