// Shared main() for the google-benchmark micro benches.
//
// BENCHMARK_MAIN() cannot carry the harness-wide --bench-json flag, so the
// micro binaries call run_micro_bench() instead: it strips --bench-json
// from argv before benchmark::Initialize sees it (google-benchmark rejects
// unknown flags), runs the registered benchmarks through a reporter that
// mirrors every finished run into a BenchReporter (and prints in the
// --benchmark_format the command line asks for), and writes the same
// uniform JSON block every other bench emits. Per-run
// metric names are the google-benchmark names verbatim
// ("BM_AllReduceSum/2/1024"), with ".real_seconds_per_iter",
// ".cpu_seconds_per_iter", and any user counters appended.
#pragma once

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "harness/harness.hpp"

namespace dynkge::bench {

/// Mirrors every finished run into a BenchReporter, and forwards every
/// call to the display reporter google-benchmark would have picked, so
/// --benchmark_format=console|json|csv still chooses what is printed.
class MicroJsonReporter : public benchmark::BenchmarkReporter {
 public:
  explicit MicroJsonReporter(obs::BenchReporter& sink)
      : sink_(sink), display_(*benchmark::CreateDefaultDisplayReporter()) {}

  bool ReportContext(const Context& context) override {
    return display_.ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const std::string name = run.benchmark_name();
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      sink_.set(name + ".real_seconds_per_iter",
                run.real_accumulated_time / iters);
      sink_.set(name + ".cpu_seconds_per_iter",
                run.cpu_accumulated_time / iters);
      for (const auto& [counter_name, counter] : run.counters) {
        sink_.set(name + "." + counter_name, counter.value);
      }
    }
    display_.ReportRuns(runs);
  }

  void Finalize() override { display_.Finalize(); }

 private:
  obs::BenchReporter& sink_;
  /// Owned by google-benchmark (a function-local static there).
  benchmark::BenchmarkReporter& display_;
};

inline int run_micro_bench(const std::string& bench_name, int argc,
                           char** argv) {
  obs::BenchReporter sink(
      bench_name, util::ArgParser(argc, argv).get_string("bench-json", ""));
  // google-benchmark aborts on flags it does not know; hide ours.
  std::vector<char*> filtered;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--bench-json") {
      if (i + 1 < argc) ++i;
      continue;
    }
    if (arg.rfind("--bench-json=", 0) == 0) continue;
    filtered.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(filtered.size());
  benchmark::Initialize(&filtered_argc, filtered.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc,
                                             filtered.data())) {
    return 1;
  }
  MicroJsonReporter reporter(sink);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  return sink.write() ? 0 : 1;
}

}  // namespace dynkge::bench

/// Drop-in replacement for BENCHMARK_MAIN() with --bench-json support.
#define DYNKGE_MICRO_BENCH_MAIN(bench_name)                       \
  int main(int argc, char** argv) {                               \
    return dynkge::bench::run_micro_bench(bench_name, argc, argv); \
  }
