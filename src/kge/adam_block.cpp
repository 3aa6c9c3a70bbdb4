// Blocked Adam application: one call retires every row of a SparseGrad.
//
// This translation unit is compiled with -fno-math-errno (value-safe: only
// libm's errno side effect is dropped) so the per-element loop — which
// carries a double sqrt — vectorizes. The per-row form
// (RowAdam::update_row in adam.cpp) keeps the default flags; it is the
// oracle test_block_kernels compares this one against.
//
// Determinism contract (DESIGN.md "Blocked training kernels"): rows are
// visited in ascending id order — exactly the order of calling update_row
// for each of sorted_ids() — and the per-element arithmetic is copied
// verbatim from update_row, so parameters, moments, and their bytes are
// identical between the two forms. The only differences are mechanical:
// sorted_slots() replaces one hash lookup per row with a direct arena
// access, and the step-state checks and config loads are hoisted out of
// the row loop.

#include <cmath>
#include <stdexcept>

#include "kge/adam.hpp"
#include "kge/kernel_dispatch.hpp"

namespace dynkge::kge {
namespace {

DYNKGE_KERNEL_CLONES
void adam_row(const float* __restrict g, float* __restrict p,
              float* __restrict m, float* __restrict v, std::size_t n,
              float b1, float b2, float wd, double lr, double bias1,
              double bias2, double epsilon) {
  for (std::size_t i = 0; i < n; ++i) {
    const float gi = g[i] + wd * p[i];
    m[i] = b1 * m[i] + (1.0f - b1) * gi;
    v[i] = b2 * v[i] + (1.0f - b2) * gi * gi;
    const double m_hat = m[i] / bias1;
    const double v_hat = v[i] / bias2;
    p[i] -= static_cast<float>(lr * m_hat / (std::sqrt(v_hat) + epsilon));
  }
}

}  // namespace

void RowAdam::update_rows(const SparseGrad& grads, EmbeddingMatrix& params) {
  if (step_ == 0) {
    throw std::logic_error("RowAdam::update_rows before begin_step");
  }
  if (grads.width() != params.width()) {
    throw std::invalid_argument("RowAdam: gradient width mismatch");
  }
  const auto n = static_cast<std::size_t>(params.width());
  const auto b1 = static_cast<float>(config_.beta1);
  const auto b2 = static_cast<float>(config_.beta2);
  const auto wd = static_cast<float>(config_.weight_decay);
  const double lr = config_.learning_rate;
  for (const SparseGrad::SlotRef& slot : grads.sorted_slots()) {
    adam_row(grads.row_at(slot.offset).data(), params.row(slot.id).data(),
             m_.row(slot.id).data(), v_.row(slot.id).data(), n, b1, b2, wd,
             lr, bias1_, bias2_, config_.epsilon);
  }
}

void RowAdam::update_rows_scaled(SparseGrad& grads, float scale,
                                 EmbeddingMatrix& params) {
  if (step_ == 0) {
    throw std::logic_error("RowAdam::update_rows_scaled before begin_step");
  }
  if (grads.width() != params.width()) {
    throw std::invalid_argument("RowAdam: gradient width mismatch");
  }
  const auto n = static_cast<std::size_t>(params.width());
  const auto b1 = static_cast<float>(config_.beta1);
  const auto b2 = static_cast<float>(config_.beta2);
  const auto wd = static_cast<float>(config_.weight_decay);
  const double lr = config_.learning_rate;
  for (const SparseGrad::SlotRef& slot : grads.sorted_slots()) {
    const auto row = grads.row_at(slot.offset);
    // Scale in place first — the same two-statement shape as the scalar
    // relation-partition path (scale loop, then update), so the float
    // rounding sequence is identical.
    for (float& x : row) x *= scale;
    adam_row(row.data(), params.row(slot.id).data(), m_.row(slot.id).data(),
             v_.row(slot.id).data(), n, b1, b2, wd, lr, bias1_, bias2_,
             config_.epsilon);
  }
}

}  // namespace dynkge::kge
