// Named runtime metrics: counters, gauges, and fixed-bucket histograms.
//
// The registry is the reproduction's stand-in for a Prometheus endpoint:
// instrumented modules (hash table contention, DKP decisions, gpusim
// kernel pricing, PCIe transfers, the service loop) record into named
// metrics, and one JSON dump exposes everything a run did. Metric objects
// are never deallocated once registered, so call sites may cache
// references (e.g. in function-local statics) without lifetime concerns;
// `reset()` zeroes values in place.
//
// Histograms combine atomic fixed-boundary buckets with a mutex-guarded
// OnlineStats (Welford) accumulator for exact mean/stdev/min/max.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.hpp"

namespace gt::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> v_{0.0};
};

class Histogram {
 public:
  /// `bounds` are ascending upper bucket edges; an implicit +inf bucket is
  /// appended (bucket_counts().size() == bounds.size() + 1).
  explicit Histogram(std::vector<double> bounds);

  void observe(double x);

  std::uint64_t count() const;
  double sum() const;
  double mean() const;
  double min() const;
  double max() const;
  double stdev() const;
  OnlineStats stats() const;

  /// Quantile *estimate* from the fixed buckets, `q` in [0, 1]: linear
  /// interpolation inside the bucket holding the q-th observation, with
  /// the exact min/max bounding the open-ended edge buckets. Exact when a
  /// bucket holds uniformly spread values; never off by more than one
  /// bucket width otherwise. 0 when empty. Exact answers over a retained
  /// sample come from util::nearest_rank (ServeReport's p50/p95/p99);
  /// this estimate is what snapshots and gt_top show, labelled as such.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  std::vector<std::uint64_t> bucket_counts() const;

  void reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  mutable std::mutex mu_;
  OnlineStats stats_;
};

/// Exponential 1-2-5 microsecond boundaries spanning 1us .. 10s — the
/// default for every latency-style histogram.
const std::vector<double>& default_latency_bounds_us();

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry (leaked singleton).
  static MetricsRegistry& global();

  /// Find-or-create. References stay valid for the process lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  /// Zero every registered metric in place (registrations survive).
  void reset();

  // -- Enumeration (live telemetry) ------------------------------------------
  // Sorted name/value copies of the current state. These are the sampling
  // primitives behind the TelemetrySnapshotter's windowed time series;
  // names come back in map (sorted) order so consecutive samples align.
  std::vector<std::pair<std::string, std::uint64_t>> counter_values() const;
  std::vector<std::pair<std::string, double>> gauge_values() const;

  struct HistogramSummary {
    std::string name;
    std::uint64_t count = 0;
    double mean = 0.0, min = 0.0, max = 0.0;
    double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  };
  std::vector<HistogramSummary> histogram_summaries() const;

  /// {"counters":{...},"gauges":{...},"histograms":{...}}. Keys are
  /// emitted in sorted order (the registry maps are ordered) and numbers
  /// formatted deterministically, so two dumps of the same state are
  /// byte-identical and dumps from different runs diff cleanly.
  void write_json(std::ostream& os) const;
  bool write_json_file(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Shorthand for MetricsRegistry::global().
inline MetricsRegistry& metrics() { return MetricsRegistry::global(); }

}  // namespace gt::obs
