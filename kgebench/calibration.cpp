#include "calibration.hpp"

#include <array>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "rollup.hpp"
#include "util/thread_clock.hpp"

namespace kgebench {
namespace {

// The kernel does what the workloads spend their time on: a streaming scan
// of dot products over an embedding table (top-k scoring, evaluation) and
// random row gathers with a write-back (SGD and Adam row updates). The
// table is the size of the fb250k_mini entity matrix at rank 32 (3 MiB), so
// it sits in the same level of the cache hierarchy as the served model.
constexpr std::size_t kRows = 12000;
constexpr std::size_t kDim = 64;
constexpr std::size_t kRowVisits = 98304;  ///< rows scanned, and rows updated
constexpr int kRunsPerThread = 8;
constexpr int kMaxThreads = 4;

/// Thread CPU seconds of one run on the reference host.
constexpr double kReferenceSeconds = 0.0093;

/// One table per kernel thread, filled on first use and then kept, so a
/// run never pays for page faults.
std::array<std::vector<float>, kMaxThreads> tables;

void fill(std::vector<float>& table) {
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  table.resize(kRows * kDim);
  for (float& value : table) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    value = static_cast<float>(state >> 40) / 16777216.0f - 0.5f;
  }
}

/// One run of the kernel on `table`; returns its thread CPU seconds.
double run_kernel(std::vector<float>& table, volatile float& sink) {
  std::array<float, kDim> query{};
  for (std::size_t k = 0; k < kDim; ++k) {
    query[k] = static_cast<float>(k % 7) * 0.125f - 0.375f;
  }
  const double start = dynkge::util::thread_cpu_seconds();
  float best = 0.0f;
  for (std::size_t i = 0; i < kRowVisits; ++i) {
    const float* values = &table[i % kRows * kDim];
    float score = 0.0f;
    for (std::size_t k = 0; k < kDim; ++k) score += values[k] * query[k];
    best = score > best ? score : best;
  }
  std::uint64_t state = 0x2545f4914f6cdd1dULL;
  for (std::size_t i = 0; i < kRowVisits; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    float* values = &table[(state >> 33) % kRows * kDim];
    float score = 0.0f;
    for (std::size_t k = 0; k < kDim; ++k) score += values[k] * query[k];
    // Pulls the row toward the query: values stay bounded and normal.
    for (std::size_t k = 0; k < kDim; ++k) {
      values[k] = 0.999f * values[k] + 0.001f * query[k];
    }
    best += score * 1e-9f;
  }
  sink = best;
  return dynkge::util::thread_cpu_seconds() - start;
}

}  // namespace

double host_slowness(int threads) {
  if (threads < 1 || threads > kMaxThreads) {
    throw std::invalid_argument("host_slowness: bad thread count");
  }
  std::vector<double> seconds(
      static_cast<std::size_t>(threads * kRunsPerThread));
  const auto runs = [&seconds](int t) {
    std::vector<float>& table = tables[static_cast<std::size_t>(t)];
    if (table.empty()) fill(table);
    volatile float sink = 0.0f;
    for (int run = 0; run < kRunsPerThread; ++run) {
      seconds[static_cast<std::size_t>(t * kRunsPerThread + run)] =
          run_kernel(table, sink);
    }
  };
  // The calling thread runs one share itself: it is the thread that runs
  // set-ups and the serving client, so it measures the core they ran on.
  std::vector<std::thread> workers;
  for (int t = 1; t < threads; ++t) workers.emplace_back(runs, t);
  runs(0);
  for (std::thread& worker : workers) worker.join();
  double sum = 0.0;
  for (const double value : seconds) sum += value;
  return sum / static_cast<double>(seconds.size()) / kReferenceSeconds;
}

}  // namespace kgebench
