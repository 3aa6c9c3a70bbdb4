// Log-bucketed duration histogram cheap enough to sit on any hot path.
//
// Buckets are log-spaced (powers of two in microseconds, 1us .. ~8.6s) so
// one array of atomics covers sub-microsecond cache hits and multi-second
// cold scans with bounded relative error. record() is a single relaxed
// fetch_add; percentiles are computed on read by walking the cumulative
// counts and interpolating inside the winning bucket.
//
// Lives in obs/ so the MetricsRegistry can own named histograms shared by
// training and serving.
#pragma once

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

namespace dynkge::obs {

class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 24;

  /// Record one observation, in seconds. Thread-safe, wait-free.
  void record(double seconds) {
    buckets_[bucket_index(seconds)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    // Sum in nanoseconds so a plain integer atomic suffices.
    total_ns_.fetch_add(static_cast<std::uint64_t>(seconds * 1e9),
                        std::memory_order_relaxed);
  }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

  double total_seconds() const {
    return static_cast<double>(total_ns_.load(std::memory_order_relaxed)) *
           1e-9;
  }

  double mean_seconds() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : total_seconds() / static_cast<double>(n);
  }

  /// Observations recorded into bucket `b` so far.
  std::uint64_t bucket_count(std::size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  /// Bucket b covers [floor(b), floor(b+1)) seconds (2^b microseconds);
  /// bucket 0 also absorbs everything below 1us, the last bucket
  /// everything above ~8.6s.
  static double bucket_floor_seconds(std::size_t b) {
    return std::ldexp(1.0, static_cast<int>(b)) * 1e-6;  // 2^b microseconds
  }

  /// Upper edge of bucket b (the Prometheus `le` label); +inf for the
  /// overflow bucket.
  static double bucket_upper_seconds(std::size_t b) {
    if (b + 1 >= kBuckets) return std::numeric_limits<double>::infinity();
    return bucket_floor_seconds(b + 1);
  }

  /// Latency at quantile q in [0, 1], linearly interpolated inside the
  /// winning bucket. Concurrent record() calls make the answer approximate
  /// (as with any live histogram); 0 when empty.
  double quantile_seconds(double q) const {
    std::array<std::uint64_t, kBuckets> snapshot;
    std::uint64_t total = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      snapshot[b] = buckets_[b].load(std::memory_order_relaxed);
      total += snapshot[b];
    }
    if (total == 0) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const double target = q * static_cast<double>(total);
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (snapshot[b] == 0) continue;
      const double before = static_cast<double>(cumulative);
      cumulative += snapshot[b];
      if (static_cast<double>(cumulative) >= target) {
        const double fraction =
            (target - before) / static_cast<double>(snapshot[b]);
        const double lo = bucket_floor_seconds(b);
        const double hi = bucket_floor_seconds(b + 1);
        return lo + (hi - lo) * fraction;
      }
    }
    return bucket_floor_seconds(kBuckets);
  }

  /// "p50 12.3us  p95 1.2ms  p99 3.4ms" — the standard serving triple.
  std::string percentile_summary() const {
    return "p50 " + format_seconds(quantile_seconds(0.50)) + "  p95 " +
           format_seconds(quantile_seconds(0.95)) + "  p99 " +
           format_seconds(quantile_seconds(0.99));
  }

  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    total_ns_.store(0, std::memory_order_relaxed);
  }

  static std::string format_seconds(double seconds) {
    char buffer[32];
    if (seconds < 1e-3) {
      std::snprintf(buffer, sizeof(buffer), "%.1fus", seconds * 1e6);
    } else if (seconds < 1.0) {
      std::snprintf(buffer, sizeof(buffer), "%.2fms", seconds * 1e3);
    } else {
      std::snprintf(buffer, sizeof(buffer), "%.2fs", seconds);
    }
    return buffer;
  }

 private:
  static std::size_t bucket_index(double seconds) {
    const double us = seconds * 1e6;
    if (us < 1.0) return 0;
    const auto b = static_cast<std::size_t>(std::log2(us));
    return b >= kBuckets ? kBuckets - 1 : b;
  }

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> total_ns_{0};
};

}  // namespace dynkge::obs
