#include "core/hard_negatives.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace dynkge::core {

std::size_t select_hard_negatives_block(
    const kge::KgeModel& model, const kge::NegativeSampler& sampler,
    std::span<const kge::Triple> positives, int sampled, int used,
    util::Rng& rng, kge::TripleList& out, std::vector<std::size_t>& offsets,
    HardNegativeScratch& scratch) {
  if (sampled < 1 || used < 1) {
    throw std::invalid_argument(
        "select_hard_negatives_block: counts must be >= 1");
  }
  const auto per_positive = static_cast<std::size_t>(sampled);

  // Draw every positive's candidates up front. Scoring consumes no RNG, so
  // grouping all draws first leaves the RNG stream identical to the
  // per-positive interleaving (draw, score, draw, score, ...) — candidate
  // j of positive i is still the (i * sampled + j)-th corruption drawn.
  // The draws run on a local copy of the generator, written back once, so
  // its state can stay in registers across the inlined draw loop.
  scratch.candidates.resize(positives.size() * per_positive);
  util::Rng draws = rng;
  kge::Triple* candidate = scratch.candidates.data();
  for (const kge::Triple& positive : positives) {
    for (int i = 0; i < sampled; ++i) {
      *candidate++ = sampler.corrupt(positive, draws);
    }
  }
  rng = draws;

  if (used >= sampled) {
    // Baseline behaviour: every corruption trains, no scoring pass.
    for (std::size_t p = 0; p < positives.size(); ++p) {
      const auto first = scratch.candidates.begin() + p * per_positive;
      out.insert(out.end(), first, first + sampled);
      offsets.push_back(out.size());
    }
    return 0;
  }

  scratch.scores.resize(scratch.candidates.size());
  model.score_triples_block(scratch.candidates, scratch.scores);

  // Per positive: partial_sort over candidate indices with the comparator
  // a per-positive loop applies to its (score, triple) pairs. The
  // comparisons read only the scores, so they and the resulting order are
  // that loop's, and ties break identically. The hardest negatives are the
  // highest scoring (the model is least sure they are false); partial_sort
  // keeps this O(n log m).
  scratch.ranked.resize(per_positive);
  for (std::size_t p = 0; p < positives.size(); ++p) {
    const std::size_t base = p * per_positive;
    const double* scores = scratch.scores.data() + base;
    std::iota(scratch.ranked.begin(), scratch.ranked.end(), 0);
    std::partial_sort(scratch.ranked.begin(), scratch.ranked.begin() + used,
                      scratch.ranked.end(), [scores](int a, int b) {
                        return scores[a] > scores[b];
                      });
    for (int i = 0; i < used; ++i) {
      out.push_back(scratch.candidates[base + scratch.ranked[i]]);
    }
    offsets.push_back(out.size());
  }
  return scratch.candidates.size();
}

}  // namespace dynkge::core
