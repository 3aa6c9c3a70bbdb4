// MetricsRegistry: find-or-create semantics, concurrent recording,
// histogram quantile edge cases, and both snapshot formats.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/json.hpp"

namespace dynkge::obs {
namespace {

using dynkge::util::parse_json;

TEST(MetricsRegistry, FindOrCreateReturnsStableInstances) {
  MetricsRegistry registry;
  Counter& a = registry.counter("train.steps");
  Counter& b = registry.counter("train.steps");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);

  Gauge& g = registry.gauge("train.loss");
  g.set(0.25);
  EXPECT_DOUBLE_EQ(registry.gauge("train.loss").value(), 0.25);

  LatencyHistogram& h = registry.histogram("serve.latency_seconds");
  h.record(1e-3);
  EXPECT_EQ(&h, &registry.histogram("serve.latency_seconds"));
  EXPECT_EQ(h.count(), 1u);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("x"), std::invalid_argument);
  registry.gauge("y");
  EXPECT_THROW(registry.counter("y"), std::invalid_argument);
}

TEST(MetricsRegistry, ConcurrentCountersSumExactly) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Hammer registration and recording from every thread: the name
      // resolves to one shared counter and no increment may be lost.
      for (int i = 0; i < kAddsPerThread; ++i) {
        registry.counter("shared").add(1);
        registry.histogram("lat").record(1e-4);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(registry.counter("shared").value(),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
  EXPECT_EQ(registry.histogram("lat").count(),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
}

TEST(LatencyHistogram, QuantileEdgeCases) {
  LatencyHistogram h;
  // Empty histogram: all quantiles are zero, not NaN.
  EXPECT_DOUBLE_EQ(h.quantile_seconds(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile_seconds(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile_seconds(1.0), 0.0);
  EXPECT_DOUBLE_EQ(h.mean_seconds(), 0.0);

  // A single observation lands in one bucket; every quantile must fall
  // inside that bucket's range.
  h.record(3e-3);
  for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    const double v = h.quantile_seconds(q);
    EXPECT_GE(v, LatencyHistogram::bucket_floor_seconds(0));
    EXPECT_LE(v, 8e-3) << "q=" << q;
  }
  EXPECT_NEAR(h.mean_seconds(), 3e-3, 1e-9);

  // Out-of-range q clamps instead of reading out of bounds.
  EXPECT_GE(h.quantile_seconds(-1.0), 0.0);
  EXPECT_LE(h.quantile_seconds(2.0), 8e-3);

  // Monotone in q with a spread of observations.
  LatencyHistogram spread;
  for (int i = 0; i < 1000; ++i) spread.record(1e-5 * (i + 1));
  double last = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double v = spread.quantile_seconds(q);
    EXPECT_GE(v, last);
    last = v;
  }
}

TEST(LatencyHistogram, ExtremesClampToOuterBuckets) {
  LatencyHistogram h;
  h.record(0.0);      // below the first bucket floor
  h.record(1e9);      // far beyond the last bucket
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(LatencyHistogram::kBuckets - 1), 1u);
}

TEST(MetricsRegistry, JsonSnapshotParsesAndMatches) {
  MetricsRegistry registry;
  registry.counter("train.steps").add(42);
  registry.gauge("train.loss").set(0.5);
  registry.histogram("serve.latency_seconds").record(2e-3);

  const auto root = parse_json(registry.to_json());
  ASSERT_TRUE(root.is_object());
  EXPECT_DOUBLE_EQ(root.at("counters").at("train.steps").number, 42.0);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("train.loss").number, 0.5);
  const auto& hist = root.at("histograms").at("serve.latency_seconds");
  EXPECT_DOUBLE_EQ(hist.at("count").number, 1.0);
  EXPECT_NEAR(hist.at("mean_seconds").number, 2e-3, 1e-9);
  ASSERT_TRUE(hist.at("buckets").is_array());
  ASSERT_EQ(hist.at("buckets").array.size(), 1u);  // only non-zero buckets
}

TEST(MetricsRegistry, EmptyRegistrySnapshotIsValidJson) {
  MetricsRegistry registry;
  const auto root = parse_json(registry.to_json());
  EXPECT_TRUE(root.at("counters").object.empty());
  EXPECT_TRUE(root.at("gauges").object.empty());
  EXPECT_TRUE(root.at("histograms").object.empty());
}

TEST(MetricsRegistry, PrometheusExposition) {
  MetricsRegistry registry;
  registry.counter("train.bytes-on-wire").add(7);
  registry.gauge("train.lr").set(0.01);
  auto& h = registry.histogram("serve.latency_seconds");
  h.record(1e-3);
  h.record(5e-3);

  const std::string text = registry.to_prometheus();
  // Names are prefixed and sanitized ('.'/'-' -> '_').
  EXPECT_NE(text.find("# TYPE dynkge_train_bytes_on_wire counter"),
            std::string::npos);
  EXPECT_NE(text.find("dynkge_train_bytes_on_wire 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dynkge_train_lr gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dynkge_serve_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("dynkge_serve_latency_seconds_count 2"),
            std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 2"), std::string::npos);

  // Bucket series are cumulative: each count >= the previous one.
  std::istringstream lines(text);
  std::string line;
  long previous = -1;
  int buckets = 0;
  while (std::getline(lines, line)) {
    const auto le = line.find("_bucket{le=");
    if (le == std::string::npos) continue;
    const long count = std::stol(line.substr(line.rfind(' ') + 1));
    EXPECT_GE(count, previous) << line;
    previous = count;
    ++buckets;
  }
  EXPECT_EQ(buckets, LatencyHistogram::kBuckets);
}

TEST(MetricsRegistry, WriteMetricsPicksFormatByExtension) {
  MetricsRegistry registry;
  registry.counter("c").add(1);

  const std::string json_path = ::testing::TempDir() + "metrics_test.json";
  const std::string prom_path = ::testing::TempDir() + "metrics_test.prom";
  write_metrics(registry, json_path);
  write_metrics(registry, prom_path);

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  };
  EXPECT_NO_THROW(parse_json(slurp(json_path)));
  EXPECT_NE(slurp(prom_path).find("# TYPE dynkge_c counter"),
            std::string::npos);
  std::remove(json_path.c_str());
  std::remove(prom_path.c_str());

  EXPECT_THROW(write_metrics(registry, "/nonexistent-dir/x.json"),
               std::runtime_error);
}

}  // namespace
}  // namespace dynkge::obs
