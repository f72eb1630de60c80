#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"

namespace gt::obs {
namespace {

TEST(Counter, AddValueReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetOverwrites) {
  Gauge g;
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Histogram, BucketsAndExactStats) {
  Histogram h({1.0, 2.0, 5.0});
  for (double x : {0.5, 1.0, 1.5, 3.0, 100.0}) h.observe(x);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 106.0);
  EXPECT_DOUBLE_EQ(h.mean(), 21.2);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  // Upper bucket edges are inclusive (x <= bound), like Prometheus `le`.
  const std::vector<std::uint64_t> expected = {2, 1, 1, 1};
  EXPECT_EQ(h.bucket_counts(), expected);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_counts(), std::vector<std::uint64_t>(4, 0));
}

TEST(Histogram, StdevMatchesClosedForm) {
  Histogram h({10.0});
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) h.observe(x);
  EXPECT_NEAR(h.stdev(), 2.0, 1e-12);  // population stdev: sqrt(32/8)
}

TEST(Histogram, QuantilesInterpolateWithinBuckets) {
  Histogram h({10.0, 20.0, 30.0});
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i % 40));
  // Uniform-ish data: the bucket-estimated quantiles should land near the
  // exact ones, and must be monotone and clamped to [min, max].
  const double p50 = h.quantile(0.5);
  const double p95 = h.quantile(0.95);
  const double p99 = h.quantile(0.99);
  EXPECT_LE(h.min(), p50);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, h.max());
  EXPECT_NEAR(p50, 20.0, 5.0);
  EXPECT_DOUBLE_EQ(h.p50(), h.quantile(0.5));
  EXPECT_DOUBLE_EQ(h.p95(), h.quantile(0.95));
  EXPECT_DOUBLE_EQ(h.p99(), h.quantile(0.99));
}

TEST(Histogram, QuantileEdgeCases) {
  Histogram empty({1.0});
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);

  Histogram one({1.0});
  one.observe(0.25);
  EXPECT_DOUBLE_EQ(one.quantile(0.0), 0.25);
  EXPECT_DOUBLE_EQ(one.quantile(0.5), 0.25);
  EXPECT_DOUBLE_EQ(one.quantile(1.0), 0.25);

  // Everything in the open-ended top bucket: estimates clamp to the exact
  // observed [min, max] rather than extrapolating to infinity.
  Histogram top({1.0});
  top.observe(50.0);
  top.observe(150.0);
  EXPECT_GE(top.quantile(0.99), 50.0);
  EXPECT_LE(top.quantile(0.99), 150.0);
}

TEST(Histogram, AllEqualObservationsCollapseQuantiles) {
  Histogram h({1.0, 2.0, 5.0});
  for (int i = 0; i < 10; ++i) h.observe(3.0);
  // Every quantile of a constant sample is that constant: the estimate
  // must clamp to the exact [min, max] instead of smearing across the
  // (2, 5] bucket.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.0);
  EXPECT_DOUBLE_EQ(h.stdev(), 0.0);
}

TEST(Histogram, NegativeValuesLandInFirstBucket) {
  Histogram h({0.0, 10.0});
  h.observe(-5.0);
  h.observe(-1.0);
  h.observe(4.0);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
  const std::vector<std::uint64_t> expected = {2, 1, 0};
  EXPECT_EQ(h.bucket_counts(), expected);
  // Quantiles stay within the exact observed range even though the first
  // bucket's lower edge is open-ended.
  EXPECT_GE(h.quantile(0.01), -5.0);
  EXPECT_LE(h.quantile(0.99), 4.0);
}

TEST(Histogram, QuantilesMonotoneAcrossSparseBuckets) {
  // A bucket gap (nothing in (1, 100]) must not produce a non-monotone
  // estimate sequence.
  Histogram h({1.0, 100.0, 1000.0});
  for (int i = 0; i < 50; ++i) h.observe(0.5);
  for (int i = 0; i < 50; ++i) h.observe(500.0);
  double prev = h.quantile(0.0);
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 500.0);
}

TEST(MetricsRegistry, SameNameReturnsSameObject) {
  MetricsRegistry r;
  Counter& a = r.counter("x");
  Counter& b = r.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(7);
  EXPECT_EQ(b.value(), 7u);
  // Distinct kinds may share a name without clashing.
  Gauge& g = r.gauge("x");
  g.set(1.0);
  EXPECT_EQ(a.value(), 7u);
  // Explicit bounds are only applied on first creation.
  Histogram& h1 = r.histogram("lat", {1.0, 2.0});
  Histogram& h2 = r.histogram("lat");
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h1.bounds().size(), 2u);
}

TEST(MetricsRegistry, ConcurrentIncrementsAreExact) {
  MetricsRegistry r;
  constexpr int kThreads = 8, kAddsPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&r] {
      Counter& c = r.counter("contended");
      Histogram& h = r.histogram("contended_h", {0.5});
      for (int i = 0; i < kAddsPerThread; ++i) {
        c.add(1);
        h.observe(1.0);
      }
    });
  for (auto& w : workers) w.join();
  const std::uint64_t total =
      static_cast<std::uint64_t>(kThreads) * kAddsPerThread;
  EXPECT_EQ(r.counter("contended").value(), total);
  EXPECT_EQ(r.histogram("contended_h").count(), total);
  EXPECT_EQ(r.histogram("contended_h").bucket_counts().back(), total);
}

TEST(MetricsRegistry, ResetZeroesButKeepsRegistrations) {
  MetricsRegistry r;
  Counter& c = r.counter("c");
  Gauge& g = r.gauge("g");
  Histogram& h = r.histogram("h");
  c.add(3);
  g.set(9.0);
  h.observe(2.5);
  r.reset();
  // Same objects, zeroed in place — cached references stay valid.
  EXPECT_EQ(&r.counter("c"), &c);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(MetricsRegistry, JsonDumpContainsEverything) {
  MetricsRegistry r;
  r.counter("hash.acquisitions").add(12);
  r.gauge("cache.hit_rate").set(0.75);
  r.histogram("kernel_us", {1.0, 10.0}).observe(3.0);
  std::ostringstream os;
  r.write_json(os);
  const std::string json = os.str();
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(json_parse(json, &doc, &err)) << err;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_EQ(doc.at("counters").number_at("hash.acquisitions"), 12.0);
  EXPECT_NE(json.find("\"cache.hit_rate\""), std::string::npos);
  EXPECT_NE(json.find("\"kernel_us\""), std::string::npos);
  EXPECT_EQ(doc.at("histograms").at("kernel_us").at("buckets").as_array()
                .back().string_at("le"),
            "inf");
  // Braces/brackets balance (the dedicated validity test lives in
  // test_tracer.cpp's JsonChecker; this is a cheap sanity pass).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(MetricsRegistry, JsonDumpHasSortedKeysAndIsByteStable) {
  MetricsRegistry r;
  r.counter("zeta").add(1);
  r.counter("alpha").add(2);
  r.gauge("mid").set(0.5);
  r.histogram("lat_us", {1.0, 10.0}).observe(4.0);
  std::ostringstream a, b;
  r.write_json(a);
  r.write_json(b);
  EXPECT_EQ(a.str(), b.str());  // byte-stable across dumps
  // std::map registries iterate in key order, so "alpha" precedes "zeta".
  EXPECT_LT(a.str().find("\"alpha\""), a.str().find("\"zeta\""));
  // The histogram summary now carries the estimated percentiles.
  EXPECT_NE(a.str().find("\"p50\""), std::string::npos);
  EXPECT_NE(a.str().find("\"p95\""), std::string::npos);
  EXPECT_NE(a.str().find("\"p99\""), std::string::npos);
}

TEST(MetricsRegistry, GlobalIsAStableSingleton) {
  EXPECT_EQ(&MetricsRegistry::global(), &metrics());
}

TEST(DefaultLatencyBounds, AscendingAndSpanning) {
  const auto& b = default_latency_bounds_us();
  ASSERT_GE(b.size(), 2u);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1], b[i]);
  EXPECT_DOUBLE_EQ(b.front(), 1.0);
  EXPECT_GE(b.back(), 1e6);
}

}  // namespace
}  // namespace gt::obs
