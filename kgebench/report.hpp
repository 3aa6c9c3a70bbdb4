// What one benchmark run reports: the metric tables, the output checks and
// the closing JSON line, plus the small measurement helpers the workloads
// share.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "calibration.hpp"
#include "kge/model.hpp"
#include "rollup.hpp"

namespace kgebench {

/// One printed number. `samples` is how many measurements it summarizes
/// (1 for a count or a single measurement).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
  std::string note;  ///< what the number is on this workload
};

/// A metric name and unit as BENCHMARK.json lists it.
struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The "end_to_end" (untraced) or "per_layer" (traced) list of the
/// BENCHMARK.json at `path` — the one list of the benchmark's metrics.
std::vector<MetricSpec> load_metric_spec(const std::string& path, bool trace);

class Report {
 public:
  /// `spec` lists the metrics of the mode being run: every run reports
  /// each of them and no other.
  Report(std::string workload, bool trace, std::vector<MetricSpec> spec)
      : workload_(std::move(workload)), trace_(trace), spec_(std::move(spec)) {}

  /// A metric of the mode being run (end-to-end when untraced, per-layer
  /// when traced). Names must be in the spec.
  void metric(const std::string& name, double value, std::size_t samples,
              std::string note = "");

  /// A percentile metric. Its sample count is printed with it, and a
  /// percentile with fewer than ten samples beyond it is marked as such.
  void percentile_metric(const std::string& name, const Percentile& p,
                         const std::string& note);

  /// A workload-specific end-to-end quantity, printed for reading (with
  /// unit and sample count) but not part of the JSON result.
  void detail(const std::string& name, double value, const std::string& unit,
              std::size_t samples, std::string note = "");

  /// Record an output check. A failed check counts one failed operation.
  void check(bool ok, const std::string& what);

  /// Operations attempted and failed (reads shed or failed, deltas shed).
  void count_ops(std::uint64_t attempted, std::uint64_t failed);

  bool correct() const { return failed_checks_ == 0 && failed_ops_ == 0; }

  /// Print the human-readable tables and, last, the JSON result line. In a
  /// traced run, per-layer metrics of layers the workload never enters
  /// print as 0.
  void print();

 private:
  std::string workload_;
  bool trace_;
  std::vector<MetricSpec> spec_;
  std::vector<Metric> metrics_;
  std::vector<Metric> details_;
  std::vector<std::string> check_lines_;
  std::uint64_t checks_ = 0;
  std::uint64_t failed_checks_ = 0;
  std::uint64_t attempted_ops_ = 0;
  std::uint64_t failed_ops_ = 0;
};

/// CPU seconds used by every thread of this process so far. Unlike wall
/// time it does not count time the host ran other tenants on our cores.
double process_cpu_seconds();

/// Run `setup` at least five times and until three seconds have passed (at
/// most a hundred times) and return the process CPU seconds of each, so
/// setup_s is the median of many set-ups; or just once when `once` (the
/// traced run reports no setup_s). Each is in reference-host seconds:
/// divided by the mean host_slowness(kernel_threads) of the calibrations
/// just before and just after it. A set-up is short
/// and runs on the calling thread, as one share of the kernel does, so the
/// pair tracks the host's fast swings too (this halved setup_s's spread
/// against dividing by the median of all calibrations).
std::vector<double> time_setups(bool once, int kernel_threads,
                                const std::function<void()>& setup);

/// FNV-1a over the entity then the relation matrix bytes.
std::uint64_t model_digest(const dynkge::kge::KgeModel& model);
std::string hex64(std::uint64_t value);

/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mib();

}  // namespace kgebench
