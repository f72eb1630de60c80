#include "obs/metrics.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace gt::obs {

// ---- Histogram --------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end()))
    throw std::invalid_argument("histogram bounds must be ascending");
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
}

void Histogram::observe(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  std::lock_guard lock(mu_);
  stats_.add(x);
}

std::uint64_t Histogram::count() const {
  std::lock_guard lock(mu_);
  return stats_.count();
}
double Histogram::sum() const {
  std::lock_guard lock(mu_);
  return stats_.sum();
}
double Histogram::mean() const {
  std::lock_guard lock(mu_);
  return stats_.mean();
}
double Histogram::min() const {
  std::lock_guard lock(mu_);
  return stats_.min();
}
double Histogram::max() const {
  std::lock_guard lock(mu_);
  return stats_.max();
}
double Histogram::stdev() const {
  std::lock_guard lock(mu_);
  return stats_.stdev();
}
OnlineStats Histogram::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

double Histogram::quantile(double q) const {
  const OnlineStats s = stats();
  const std::uint64_t total = s.count();
  if (total == 0) return 0.0;  // empty histogram reports 0, never NaN
  // A single observation (or an all-identical stream) has every quantile
  // equal to that exact sample — answer directly instead of relying on
  // bucket interpolation to collapse, which mis-reported p99 for the
  // one-request serving runs whenever the sample sat on a bucket edge.
  if (total == 1 || s.min() == s.max()) return s.min();
  q = std::clamp(q, 0.0, 1.0);
  if (q == 0.0) return s.min();
  if (q == 1.0) return s.max();
  const auto counts = bucket_counts();
  const double target = q * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double next = cum + static_cast<double>(counts[i]);
    if (next >= target) {
      // Interpolate inside this bucket; the exact observed min/max bound
      // the open-ended first and +inf buckets.
      double lo = i == 0 ? s.min() : bounds_[i - 1];
      double hi = i < bounds_.size() ? bounds_[i] : s.max();
      lo = std::max(lo, s.min());
      hi = std::min(hi, s.max());
      if (hi < lo) hi = lo;
      const double frac = (target - cum) / static_cast<double>(counts[i]);
      return lo + frac * (hi - lo);
    }
    cum = next;
  }
  return s.max();
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  return out;
}

void Histogram::reset() {
  std::lock_guard lock(mu_);
  stats_ = OnlineStats{};
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    buckets_[i].store(0, std::memory_order_relaxed);
}

const std::vector<double>& default_latency_bounds_us() {
  static const std::vector<double> bounds = [] {
    std::vector<double> b;
    for (double decade = 1.0; decade <= 1.0e6; decade *= 10.0)
      for (double m : {1.0, 2.0, 5.0}) b.push_back(decade * m);
    return b;
  }();
  return bounds;
}

// ---- MetricsRegistry --------------------------------------------------------

MetricsRegistry& MetricsRegistry::global() {
  // Leaked: call sites cache references across the whole process lifetime.
  static MetricsRegistry* r = new MetricsRegistry();
  return *r;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_
             .emplace(std::string(name), std::make_unique<Counter>())
             .first;
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  return histogram(name, default_latency_bounds_us());
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  std::lock_guard lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  return *it->second;
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricsRegistry::counter_values() const {
  std::lock_guard lock(mu_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  return out;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::gauge_values()
    const {
  std::lock_guard lock(mu_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g->value());
  return out;
}

std::vector<MetricsRegistry::HistogramSummary>
MetricsRegistry::histogram_summaries() const {
  std::lock_guard lock(mu_);
  std::vector<HistogramSummary> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSummary s;
    s.name = name;
    const OnlineStats st = h->stats();
    s.count = st.count();
    s.mean = st.mean();
    s.min = st.min();
    s.max = st.max();
    s.p50 = h->quantile(0.50);
    s.p95 = h->quantile(0.95);
    s.p99 = h->quantile(0.99);
    out.push_back(std::move(s));
  }
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

void MetricsRegistry::write_json(std::ostream& os) const {
  std::lock_guard lock(mu_);
  JsonWriter w;
  w.object().key("counters").object();
  for (const auto& [name, c] : counters_) w.member(name, c->value());
  w.end().key("gauges").object();
  for (const auto& [name, g] : gauges_) w.member(name, g->value());
  w.end().key("histograms").object();
  for (const auto& [name, h] : histograms_) {
    const OnlineStats s = h->stats();
    w.key(name).object(JsonWriter::kInline).member("count", s.count());
    w.member("sum", s.sum()).member("mean", s.mean()).member("min", s.min());
    w.member("max", s.max()).member("stdev", s.stdev());
    w.member("p50", h->quantile(0.50)).member("p95", h->quantile(0.95));
    w.member("p99", h->quantile(0.99)).key("buckets").array();
    const auto& bounds = h->bounds();
    const auto counts = h->bucket_counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      w.object();
      if (i < bounds.size())
        w.member("le", bounds[i]);
      else
        w.member("le", "inf");
      w.member("count", counts[i]).end();
    }
    w.end().end();
  }
  w.end().end().flush(os);
}

bool MetricsRegistry::write_json_file(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  write_json(f);
  return static_cast<bool>(f);
}

}  // namespace gt::obs
