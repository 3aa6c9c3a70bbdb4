#include "stream/refresh.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "core/hard_negatives.hpp"
#include "core/train_step.hpp"
#include "kge/adam.hpp"
#include "kge/negative_sampler.hpp"
#include "util/rng.hpp"

namespace dynkge::stream {
namespace {

/// Uniform head-or-tail corruption for the dataset-less path (a streamed
/// triple may involve entities with no dataset history to filter against).
kge::Triple corrupt_uniform(const kge::Triple& positive,
                            std::int32_t num_entities, util::Rng& rng) {
  kge::Triple negative = positive;
  const auto replacement = static_cast<kge::EntityId>(
      rng.next_below(static_cast<std::uint64_t>(num_entities)));
  if (rng.next_bernoulli(0.5)) {
    negative.head = replacement;
  } else {
    negative.tail = replacement;
  }
  return negative;
}

}  // namespace

RefreshResult incremental_refresh(kge::KgeModel& model,
                                  std::span<const kge::Triple> deltas,
                                  std::uint64_t version,
                                  const RefreshParams& params,
                                  const kge::Dataset* dataset) {
  RefreshResult result;
  if (deltas.empty() || params.steps <= 0) return result;

  // The frozen-base contract: only rows named by the batch may change.
  std::vector<kge::EntityId>& touched = result.touched;
  touched.reserve(deltas.size() * 2);
  for (const kge::Triple& t : deltas) {
    touched.push_back(t.head);
    touched.push_back(t.tail);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  // Base rows, kept to report the drift this refresh introduces.
  std::vector<float> base_rows;
  const auto width = static_cast<std::size_t>(model.entities().width());
  base_rows.reserve(touched.size() * width);
  for (const kge::EntityId id : touched) {
    const auto row = model.entities().row(id);
    base_rows.insert(base_rows.end(), row.begin(), row.end());
  }

  // One RNG stream per (seed, version): replaying the same delta batch
  // into the same version is byte-reproducible, and successive versions
  // are decorrelated.
  util::Rng rng(util::derive_seed(params.seed, version, 0x5712EA11ULL));

  kge::AdamConfig adam;
  adam.learning_rate = params.learning_rate;
  adam.weight_decay = params.weight_decay;
  // Moments for the touched rows only, at their rank in `touched`: a
  // refresh starts them at zero and no other row is ever updated.
  kge::RowAdam entity_opt(static_cast<std::int32_t>(touched.size()),
                          model.entities().width(), adam);

  // With a dataset, corruptions are filtered draws: the hardest `kept` of
  // `sampled` (strategy-5 reuse, core/hard_negatives.hpp), or all of them.
  const bool hard_mining = params.negatives_used < params.negatives_sampled &&
                           params.negatives_used > 0;
  const int kept =
      hard_mining ? params.negatives_used : params.negatives_sampled;
  std::optional<kge::NegativeSampler> sampler;
  if (dataset != nullptr && params.negatives_sampled > 0) {
    sampler.emplace(*dataset, true);
  }
  kge::ModelGrads grads = model.make_grads();
  kge::TripleList negatives;
  std::vector<std::size_t> negative_offsets;
  core::HardNegativeScratch hn_scratch;
  core::StepScratch step_scratch;

  for (int step = 0; step < params.steps; ++step) {
    grads.clear();
    negatives.clear();
    negative_offsets.assign(1, 0);
    if (sampler.has_value()) {
      core::select_hard_negatives_block(model, *sampler, deltas,
                                        params.negatives_sampled, kept, rng,
                                        negatives, negative_offsets,
                                        hn_scratch);
    } else {
      for (const kge::Triple& positive : deltas) {
        for (int i = 0; i < params.negatives_sampled; ++i) {
          negatives.push_back(
              corrupt_uniform(positive, model.num_entities(), rng));
        }
        negative_offsets.push_back(negatives.size());
      }
    }
    // The step's forward/backward, unscaled and with no underflow cut:
    // every example contributes its full loss gradient.
    double loss_sum = 0.0;
    core::forward_backward(model, deltas, negatives, negative_offsets, 1.0f,
                           0.0, grads, loss_sum, step_scratch);

    // Apply Adam only to rows inside the frozen-base contract, in sorted
    // id order (the determinism contract shared with the trainer).
    // Gradient rows for corruption entities outside the batch are
    // skipped; relation gradients are dropped entirely.
    entity_opt.begin_step();
    result.row_updates +=
        entity_opt.update_listed_rows(grads.entity, touched, model.entities());
    result.mean_loss =
        loss_sum / static_cast<double>(deltas.size() + negatives.size());
  }

  double drift_sq = 0.0;
  for (std::size_t i = 0; i < touched.size(); ++i) {
    const auto now = model.entities().row(touched[i]);
    const float* base = base_rows.data() + i * width;
    for (std::size_t j = 0; j < width; ++j) {
      const double d = static_cast<double>(now[j]) - base[j];
      drift_sq += d * d;
    }
  }
  result.drift = std::sqrt(drift_sq);
  return result;
}

}  // namespace dynkge::stream
