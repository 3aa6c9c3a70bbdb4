// Blocked Adam application: one call retires every row of a SparseGrad
// (update_listed_rows: every row whose id is listed).
//
// This translation unit is compiled with -fno-math-errno (value-safe: only
// libm's errno side effect is dropped) so the per-element loop — which
// carries a double sqrt — vectorizes. The per-row form
// (RowAdam::update_row in adam.cpp) keeps the default flags; it is the
// oracle test_block_kernels compares this one against.
//
// Determinism contract (DESIGN.md "Blocked training kernels"): rows are
// visited in ascending id order — exactly the order of calling update_row
// for the id of each of sorted_slots() — and the per-element arithmetic is
// copied verbatim from update_row, so parameters, moments, and their bytes
// are identical between the two forms. The only differences are
// mechanical: each slot's arena offset is read directly, saving the index
// read of row(id), the step-state checks and config loads are hoisted out
// of the row loop, and the first moment's bias division is skipped where
// it divides by exactly 1.0.

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
    // x / 1.0 == x for every double, and 1 - beta1^t rounds to 1.0 once
    // beta1^t < 2^-54 (t >= 356 at beta1 = 0.9): those steps skip a divide.
    const double m_hat = bias1 == 1.0 ? m[i] : m[i] / bias1;
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

std::size_t RowAdam::update_listed_rows(const SparseGrad& grads,
                                        std::span<const std::int32_t> rows,
                                        EmbeddingMatrix& params) {
  if (step_ == 0) {
    throw std::logic_error("RowAdam::update_listed_rows before begin_step");
  }
  if (grads.width() != params.width()) {
    throw std::invalid_argument("RowAdam: gradient width mismatch");
  }
  if (rows.size() != static_cast<std::size_t>(m_.rows())) {
    throw std::invalid_argument(
        "RowAdam::update_listed_rows: one moment row per listed row");
  }
  const auto n = static_cast<std::size_t>(params.width());
  const auto b1 = static_cast<float>(config_.beta1);
  const auto b2 = static_cast<float>(config_.beta2);
  const auto wd = static_cast<float>(config_.weight_decay);
  const double lr = config_.learning_rate;
  // Both sequences ascend, so one forward walk pairs each gradient row
  // with its rank in `rows`.
  std::size_t rank = 0;
  std::size_t updated = 0;
  for (const SparseGrad::SlotRef& slot : grads.sorted_slots()) {
    while (rank < rows.size() && rows[rank] < slot.id) ++rank;
    if (rank == rows.size()) break;
    if (rows[rank] != slot.id) continue;
    const auto k = static_cast<std::int32_t>(rank);
    adam_row(grads.row_at(slot.offset).data(), params.row(slot.id).data(),
             m_.row(k).data(), v_.row(k).data(), n, b1, b2, wd, lr, bias1_,
             bias2_, config_.epsilon);
    ++updated;
  }
  return updated;
}

}  // namespace dynkge::kge
