// kgebench — runs one benchmark workload and prints its metrics.
//
//   kgebench --workload train_dense|train_combined|serve_churn
//            --seed N --seconds S --trace 0|1 --workdir DIR
//            --spec BENCHMARK.json
//
// Every flag is required; run.py supplies them. The last line of standard
// output is the JSON result. Exit status: 0 when every output check
// passed, 1 when one failed, 2 on a usage or runtime error (no result
// printed).
#include <exception>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

std::string flag(int argc, char** argv, const std::string& name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == "--" + name) return argv[i + 1];
  }
  throw std::invalid_argument("--" + name + " is required");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    kgebench::RunOptions options;
    options.workload = flag(argc, argv, "workload");
    options.seed = std::stoull(flag(argc, argv, "seed"));
    options.seconds = std::stod(flag(argc, argv, "seconds"));
    options.trace = flag(argc, argv, "trace") == "1";
    options.workdir = flag(argc, argv, "workdir");
    if (options.seconds <= 0.0) {
      throw std::invalid_argument("--seconds must be positive");
    }
    kgebench::Report report(
        options.workload, options.trace,
        kgebench::load_metric_spec(flag(argc, argv, "spec"), options.trace));
    std::filesystem::remove_all(options.workdir);
    std::filesystem::create_directories(options.workdir);

    if (options.workload == "serve_churn") {
      kgebench::run_serve_workload(options, report);
    } else {
      kgebench::run_train_workload(options, report);
    }
    report.print();
    std::filesystem::remove_all(options.workdir);
    return report.correct() ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "kgebench: " << error.what() << "\n";
    return 2;
  }
}
