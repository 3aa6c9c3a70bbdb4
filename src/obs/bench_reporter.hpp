// Uniform machine-checkable result block for benchmarks.
//
// A benchmark registers its named scalar results here (backed by an
// obs::MetricsRegistry) and calls write() at the end; with a non-empty
// path that emits one JSON object keyed on a "bench" field, which
// tools/check_bench.py gates against the committed baseline in
// bench/baselines/. Layout (DESIGN.md section 11):
//
//   {"bench":"<name>","schema_version":1,
//    "context":{...workload identity, strings/ints...},
//    "flags":{...booleans, gate direction "exact"...},
//    "metrics":{"counters":{...},"gauges":{...},"histograms":{...}}}
//
// Metric names may contain dots ("n2.allreduce.tt_sim_seconds");
// check_bench resolves gate paths longest-key-first so that is safe. The
// bench binaries and `dynkge serve-bench` both write through this class,
// passing their --bench-json flag as the path.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace dynkge::obs {

class BenchReporter {
 public:
  /// `bench` keys the gate set; `path` is where write() puts the block
  /// ("" = nowhere).
  BenchReporter(std::string bench, std::string path);

  /// Workload-identity fields, emitted under "context" in insertion
  /// order. Not gated — they make a failing BENCH_*.json self-describing.
  void context(const std::string& key, const std::string& value);
  void context(const std::string& key, std::int64_t value);

  /// Scalar result -> gauge. Use for measured or derived doubles.
  void set(const std::string& name, double value);
  /// Integer result -> counter (set-once semantics, not accumulation).
  void count(const std::string& name, std::uint64_t value);
  /// Boolean result -> "flags" (always gated exact when listed).
  void flag(const std::string& name, bool value);

  std::string to_json() const;

  /// Write the block to the path; no-op (true) when the path is empty.
  /// Logs and returns false on I/O failure so mains can fold it into their
  /// exit status.
  bool write() const;

 private:
  struct ContextValue {
    bool is_int = false;
    std::string text;
    std::int64_t number = 0;
  };

  std::string bench_;
  std::string path_;
  std::vector<std::pair<std::string, ContextValue>> context_;
  std::map<std::string, bool> flags_;
  MetricsRegistry registry_;
};

}  // namespace dynkge::obs
