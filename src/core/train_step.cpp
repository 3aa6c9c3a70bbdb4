#include "core/train_step.hpp"

#include <cmath>
#include <stdexcept>

#include "kge/loss.hpp"

namespace dynkge::core {

void forward_backward(const kge::KgeModel& model,
                      std::span<const kge::Triple> positives,
                      std::span<const kge::Triple> negatives,
                      std::span<const std::size_t> negative_offsets,
                      float coeff_scale, double underflow_cut,
                      kge::ModelGrads& grads, double& loss_sum,
                      StepScratch& scratch) {
  if (negative_offsets.size() != positives.size() + 1 ||
      negative_offsets.back() != negatives.size()) {
    throw std::invalid_argument(
        "forward_backward: negative_offsets must hold positives + 1 "
        "entries ending at negatives.size()");
  }

  // Gather the examples in loss order — positive i, then its negatives —
  // and score them through one blocked forward pass.
  scratch.examples.clear();
  for (std::size_t i = 0; i < positives.size(); ++i) {
    scratch.examples.push_back(positives[i]);
    scratch.examples.insert(
        scratch.examples.end(),
        negatives.begin() + static_cast<std::ptrdiff_t>(negative_offsets[i]),
        negatives.begin() +
            static_cast<std::ptrdiff_t>(negative_offsets[i + 1]));
  }
  scratch.scores.resize(scratch.examples.size());
  model.score_triples_block(scratch.examples, scratch.scores);

  // Loss pass over the precomputed scores, in the same order (loss_sum is
  // order-sensitive).
  scratch.work.clear();
  std::size_t idx = 0;
  const auto loss_and_work = [&](int label) {
    const kge::Triple& example = scratch.examples[idx];
    const auto lg = kge::logistic_loss(scratch.scores[idx], label);
    ++idx;
    loss_sum += lg.loss;
    if (std::fabs(lg.dscore) < underflow_cut) return;
    scratch.work.push_back({example.head, example.relation, example.tail,
                            static_cast<float>(lg.dscore) * coeff_scale});
  };
  for (std::size_t i = 0; i < positives.size(); ++i) {
    loss_and_work(+1);
    for (std::size_t n = negative_offsets[i]; n < negative_offsets[i + 1];
         ++n) {
      loss_and_work(-1);
    }
  }

  // Create every gradient row in accumulate_gradients' creation order
  // (h, t, r per item), recording arena offsets — offsets, unlike spans,
  // survive arena growth — then resolve stable row pointers and run the
  // block kernel over the batch.
  scratch.offsets.resize(scratch.work.size());
  for (std::size_t w = 0; w < scratch.work.size(); ++w) {
    const kge::GradWork& item = scratch.work[w];
    scratch.offsets[w] = {grads.entity.accumulate_offset(item.h),
                          grads.entity.accumulate_offset(item.t),
                          grads.relation.accumulate_offset(item.r)};
  }
  for (std::size_t w = 0; w < scratch.work.size(); ++w) {
    kge::GradWork& item = scratch.work[w];
    item.gh = grads.entity.row_at(scratch.offsets[w][0]).data();
    item.gt = grads.entity.row_at(scratch.offsets[w][1]).data();
    item.gr = grads.relation.row_at(scratch.offsets[w][2]).data();
  }
  model.accumulate_gradients_block(scratch.work, grads);
}

}  // namespace dynkge::core
