// Micro-benchmark (google-benchmark) for the blocked Adam update,
// RowAdam::update_rows, on the two tables the training workloads update:
// an fb250k_mini-shaped entity table (12 000 x 64, about 2 000 sorted
// random rows per step, so the parameter and moment rows a step reads are
// cold: 9 MiB of table) and an fb15k_mini-shaped one (2 000 x 64, 1 000
// rows per step, 1.5 MiB of table, warm). Each iteration is one optimizer
// step, on the next of 16 pre-drawn row sets. Items are elements updated,
// so 1e9 / items_per_second is the time per element in ns.
#include <benchmark/benchmark.h>

#include "harness/micro_main.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "kge/adam.hpp"
#include "kge/embedding.hpp"
#include "util/rng.hpp"

namespace {

using dynkge::kge::EmbeddingMatrix;
using dynkge::kge::RowAdam;
using dynkge::kge::SparseGrad;
using dynkge::util::Rng;

constexpr std::int32_t kWidth = 64;  // ComplEx rank 32
constexpr int kRowSets = 16;

/// `touched` distinct random rows of a `rows`-row table, with gradients of
/// the scale a trained step sees.
SparseGrad draw_step(std::int32_t rows, std::int32_t touched, Rng& rng) {
  std::vector<std::int32_t> ids(static_cast<std::size_t>(rows));
  for (std::int32_t id = 0; id < rows; ++id) ids[id] = id;
  for (std::int32_t k = 0; k < touched; ++k) {
    const auto pick = k + static_cast<std::int32_t>(
                              rng.next_below(static_cast<std::uint64_t>(
                                  rows - k)));
    std::swap(ids[k], ids[pick]);
  }
  SparseGrad grads(kWidth);
  for (std::int32_t k = 0; k < touched; ++k) {
    for (float& x : grads.accumulate(ids[k])) {
      x = static_cast<float>(rng.next_double(-1e-2, 1e-2));
    }
  }
  grads.sorted_slots();  // built once, outside the timed loop
  return grads;
}

void BM_AdamUpdateRows(benchmark::State& state, std::int32_t rows,
                       std::int32_t touched) {
  Rng rng(5);
  std::vector<SparseGrad> steps;
  for (int s = 0; s < kRowSets; ++s) {
    steps.push_back(draw_step(rows, touched, rng));
  }
  EmbeddingMatrix params(rows, kWidth);
  for (float& x : params.flat()) {
    x = static_cast<float>(rng.next_double(-0.1, 0.1));
  }
  dynkge::kge::AdamConfig config;
  config.learning_rate = 0.01;
  RowAdam adam(rows, kWidth, config);
  std::size_t next = 0;
  for (auto _ : state) {
    adam.begin_step();
    adam.update_rows(steps[next], params);
    next = (next + 1) % steps.size();
    benchmark::DoNotOptimize(params.flat().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * touched * kWidth);
}
BENCHMARK_CAPTURE(BM_AdamUpdateRows, fb250k_mini, 12000, 2000);
BENCHMARK_CAPTURE(BM_AdamUpdateRows, fb15k_mini, 2000, 1000);

}  // namespace

DYNKGE_MICRO_BENCH_MAIN("micro_adam")
