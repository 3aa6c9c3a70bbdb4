// The forward/backward half of one synchronous SGD step, on the blocked
// kernels.
//
// Every training path that takes a step over a batch — the distributed
// trainer's ranks and the streaming refresh — composes it the same way:
// negatives are selected first (select_hard_negatives_block, or any other
// source laid out the same), then this function scores the batch, applies
// the logistic loss and accumulates the gradients into a ModelGrads, and
// finally the caller updates the touched rows (RowAdam::update_rows).
//
// Determinism: the result is byte-identical to the per-triple reference
// composition — for each positive i in order, score -> logistic_loss ->
// accumulate_gradients for the positive and then for each of its
// negatives — because the blocked kernels keep each item's arithmetic and
// each memory location's accumulation order (kge/model.hpp), the loss sum
// is accumulated in that same order, and gradient rows are created in the
// order accumulate_gradients would create them (h, t, r per item).
// test_block_kernels checks this against a test-local composition.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "kge/model.hpp"
#include "kge/triple.hpp"

namespace dynkge::core {

/// Loss-gradient coefficients below this magnitude are treated as exactly
/// zero by the distributed trainer, the same saturation float32 frameworks
/// exhibit (sigmoid(y*phi) rounds to 1 once y*phi > ~16, zeroing the
/// example's gradient). This is what makes the number of non-zero gradient
/// rows *decrease* as training converges (paper figure 2) and the
/// all-gather volume shrink late in training.
inline constexpr double kCoeffUnderflow = 1e-7;

/// Reusable buffers for forward_backward (one per rank or refresher, so
/// the steady-state hot path stops allocating).
struct StepScratch {
  kge::TripleList examples;
  std::vector<double> scores;
  std::vector<kge::GradWork> work;
  std::vector<std::array<std::size_t, 3>> offsets;
};

/// Score positives[i] (label +1) and negatives[negative_offsets[i] ..
/// negative_offsets[i + 1]) (label -1) for every i, in that order, through
/// one score_triples_block call; add each example's logistic loss to
/// `loss_sum`; and accumulate coeff_scale * dLoss/dphi times the score
/// gradient into `grads` for every example whose |dLoss/dphi| is not below
/// `underflow_cut` (0 keeps every example). `negative_offsets` holds
/// positives.size() + 1 ascending entries starting at 0 — the layout
/// select_hard_negatives_block appends.
void forward_backward(const kge::KgeModel& model,
                      std::span<const kge::Triple> positives,
                      std::span<const kge::Triple> negatives,
                      std::span<const std::size_t> negative_offsets,
                      float coeff_scale, double underflow_cut,
                      kge::ModelGrads& grads, double& loss_sum,
                      StepScratch& scratch);

}  // namespace dynkge::core
