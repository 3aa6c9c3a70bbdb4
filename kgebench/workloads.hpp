// The benchmark's workloads. Each builds its inputs from the seed, runs
// the library's public entry points for a timed window, checks the
// outputs, and fills a Report with the metrics of the requested mode.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace kgebench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;    ///< length of the timed window
  bool trace = false;      ///< per-layer (traced) run instead of end-to-end
  std::string workdir;     ///< scratch directory for files the run writes
};

/// Track ids of the benchmark's own spans, clear of the program's tracks
/// (ranks 0..P-1 and the host track P for training, 0 for serving).
inline constexpr int kClientTid = 1000;
inline constexpr int kWriterTid = 1001;

/// train_dense and train_combined (core::DistributedTrainer::train).
void run_train_workload(const RunOptions& options, Report& report);

/// serve_churn (serve::InferenceService::topk_batch against
/// stream::DeltaIngestor::submit_batch / flush).
void run_serve_workload(const RunOptions& options, Report& report);

}  // namespace kgebench
