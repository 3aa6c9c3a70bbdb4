// Micro-benchmarks (google-benchmark) for hard-negative selection, phase
// by phase: drawing the candidates (select_hard_negatives_block keeping
// every candidate, which runs only its draw loop and a copy; with and
// without the known-triple filter, so the difference is the filter's
// probe), scoring them, and the whole of select_hard_negatives_block.
// ComplEx rank 32, 1 000 positives x 8 candidates keeping 1
// (train_combined's 8:1), on the fb15k_mini and fb250k_mini stand-ins.
// Items are candidates.
#include <benchmark/benchmark.h>

#include "harness/micro_main.hpp"

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/hard_negatives.hpp"
#include "kge/model_factory.hpp"
#include "kge/synthetic.hpp"

namespace {

using dynkge::core::HardNegativeScratch;
using dynkge::kge::Dataset;
using dynkge::kge::KgeModel;
using dynkge::kge::NegativeSampler;
using dynkge::kge::SyntheticSpec;
using dynkge::kge::Triple;
using dynkge::kge::TripleList;
using dynkge::util::Rng;

constexpr std::size_t kPositives = 1000;
constexpr int kSampled = 8;
constexpr int kUsed = 1;
constexpr std::int64_t kCandidates =
    static_cast<std::int64_t>(kPositives) * kSampled;

/// A dataset, a ComplEx rank-32 model on it and the first kPositives
/// training triples. Built once per preset and kept for the process.
struct Setup {
  explicit Setup(const SyntheticSpec& spec)
      : dataset(dynkge::kge::generate_synthetic(spec)),
        model(dynkge::kge::make_model("complex", dataset.num_entities(),
                                      dataset.num_relations(), 32)),
        filtered(dataset, true),
        unfiltered(dataset, false),
        positives(dataset.train().first(kPositives)) {
    Rng rng(3);
    model->init(rng);
  }

  Dataset dataset;
  std::unique_ptr<KgeModel> model;
  NegativeSampler filtered;
  NegativeSampler unfiltered;
  std::span<const Triple> positives;
};

enum Preset { kFb15kMini, kFb250kMini };

const Setup& setup(Preset preset) {
  static const Setup fb15k(SyntheticSpec::fb15k_mini());
  if (preset == kFb15kMini) return fb15k;
  static const Setup fb250k(SyntheticSpec::fb250k_mini());
  return fb250k;
}

/// One step's selection keeping `used` of kSampled per positive. With
/// used == kSampled it only draws: the shared draw loop, then a copy of
/// every candidate into `out`.
std::size_t run_selection(const Setup& s, const NegativeSampler& sampler,
                          int used, Rng& rng, HardNegativeScratch& scratch,
                          TripleList& out) {
  std::vector<std::size_t> offsets;
  offsets.reserve(kPositives);
  out.clear();
  return dynkge::core::select_hard_negatives_block(
      *s.model, sampler, s.positives, kSampled, used, rng, out, offsets,
      scratch);
}

void BM_Draw(benchmark::State& state, Preset preset, bool filter) {
  const Setup& s = setup(preset);
  const NegativeSampler& sampler = filter ? s.filtered : s.unfiltered;
  HardNegativeScratch scratch;
  TripleList out;
  Rng rng(11);
  for (auto _ : state) {
    run_selection(s, sampler, kSampled, rng, scratch, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kCandidates);
}
BENCHMARK_CAPTURE(BM_Draw, fb15k_mini, kFb15kMini, true);
BENCHMARK_CAPTURE(BM_Draw, fb15k_mini_unfiltered, kFb15kMini, false);
BENCHMARK_CAPTURE(BM_Draw, fb250k_mini, kFb250kMini, true);
BENCHMARK_CAPTURE(BM_Draw, fb250k_mini_unfiltered, kFb250kMini, false);

void BM_ScoreCandidates(benchmark::State& state, Preset preset) {
  const Setup& s = setup(preset);
  HardNegativeScratch scratch;
  TripleList candidates;
  Rng rng(11);
  run_selection(s, s.filtered, kSampled, rng, scratch, candidates);
  std::vector<double> scores(candidates.size());
  for (auto _ : state) {
    s.model->score_triples_block(candidates, scores);
    benchmark::DoNotOptimize(scores.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kCandidates);
}
BENCHMARK_CAPTURE(BM_ScoreCandidates, fb15k_mini, kFb15kMini);
BENCHMARK_CAPTURE(BM_ScoreCandidates, fb250k_mini, kFb250kMini);

void BM_SelectHardNegatives(benchmark::State& state, Preset preset) {
  const Setup& s = setup(preset);
  HardNegativeScratch scratch;
  TripleList out;
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_selection(s, s.filtered, kUsed, rng, scratch, out));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kCandidates);
}
BENCHMARK_CAPTURE(BM_SelectHardNegatives, fb15k_mini, kFb15kMini);
BENCHMARK_CAPTURE(BM_SelectHardNegatives, fb250k_mini, kFb250kMini);

}  // namespace

DYNKGE_MICRO_BENCH_MAIN("micro_hard_negatives")
