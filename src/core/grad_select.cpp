#include "core/grad_select.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/span_math.hpp"

namespace dynkge::core {
namespace {

using Slots = std::vector<kge::SparseGrad::SlotRef>;

// Decide keep/drop for every row. Returns the kept count and fills `keep`
// (1 = keep). `slots` must be ascending (SparseGrad::sorted_slots
// guarantees it), which makes the Top-K tie-break — equal norms go to the
// smaller entity id — and the Bernoulli draw order independent of arena
// order and therefore byte-stable across ranks and host-pool sizes.
std::size_t mark_kept_rows(const Slots& slots,
                           const std::vector<double>& norms,
                           SelectionMode mode, std::size_t topk_k,
                           util::Rng& rng, std::vector<char>& keep) {
  keep.assign(slots.size(), 1);
  if (mode == SelectionMode::kNone) return slots.size();

  if (mode == SelectionMode::kTopK) {
    if (topk_k >= slots.size()) return slots.size();
    std::vector<std::size_t> order(slots.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (norms[a] != norms[b]) return norms[a] > norms[b];
      return slots[a].id < slots[b].id;
    });
    std::fill(keep.begin(), keep.end(), 0);
    for (std::size_t i = 0; i < topk_k; ++i) keep[order[i]] = 1;
    return topk_k;
  }

  double mean_norm = 0.0;
  for (const double norm : norms) mean_norm += norm;
  mean_norm /= static_cast<double>(slots.size());
  if (mean_norm <= 0.0) return slots.size();  // all-zero gradient: keep all

  std::size_t kept = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    bool keep_row = true;
    switch (mode) {
      case SelectionMode::kAverageThreshold:
        keep_row = norms[i] >= mean_norm;
        break;
      case SelectionMode::kAverageTenth:
        keep_row = norms[i] >= 0.1 * mean_norm;
        break;
      case SelectionMode::kBernoulli:
        keep_row = rng.next_bernoulli(norms[i] / mean_norm);
        break;
      case SelectionMode::kNone:
      case SelectionMode::kTopK:
        break;  // handled above
    }
    keep[i] = keep_row ? 1 : 0;
    if (keep_row) ++kept;
  }
  return kept;
}

}  // namespace

SelectionStats select_gradient_rows(kge::SparseGrad& grad, SelectionMode mode,
                                    util::Rng& rng, std::size_t topk_k,
                                    kge::SparseGrad* parked) {
  if (parked != nullptr && parked->width() != grad.width()) {
    throw std::invalid_argument(
        "select_gradient_rows: parked store width differs from the "
        "gradient's");
  }
  SelectionStats stats;
  stats.rows_before = grad.num_rows();
  stats.rows_after = stats.rows_before;
  if (mode == SelectionMode::kNone || grad.empty()) return stats;

  // Snapshot the slots first: erasing while iterating sorted_slots() would
  // invalidate the cached list. An erase moves no row and nothing is
  // created here, so every snapshot offset stays valid throughout.
  const Slots slots = grad.sorted_slots();
  std::vector<double> norms(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    norms[i] = util::nrm2(grad.row_at(slots[i].offset));
  }

  std::vector<char> keep;
  stats.rows_after = mark_kept_rows(slots, norms, mode, topk_k, rng, keep);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (keep[i]) continue;
    if (parked != nullptr) {
      std::ranges::copy(grad.row_at(slots[i].offset),
                        parked->accumulate(slots[i].id).begin());
    }
    grad.erase(slots[i].id);
  }
  return stats;
}

SelectionStats GradSelector::apply(kge::SparseGrad& grad, util::Rng& rng,
                                   SelectionMode mode) {
  if (!accumulate_residuals_) {
    return select_gradient_rows(grad, mode, rng, topk_k_);
  }
  if (grad.width() != residual_.width()) {
    throw std::invalid_argument(
        "GradSelector: gradient width differs from the residual store's");
  }
  // Fold parked residuals into the rows present this step, so selection
  // sees the residual-augmented norms. Rows whose residual is parked but
  // which are absent from this step's gradient stay parked (they flow in
  // whenever the row is next touched).
  for (const kge::SparseGrad::SlotRef& slot : grad.sorted_slots()) {
    if (!residual_.has(slot.id)) continue;
    const std::span<float> row = grad.row_at(slot.offset);
    const std::span<const float> parked = residual_.row(slot.id);
    for (std::size_t i = 0; i < row.size(); ++i) row[i] += parked[i];
    residual_.erase(slot.id);
  }
  return select_gradient_rows(grad, mode, rng, topk_k_, &residual_);
}

SelectionStats GradSelector::apply(kge::SparseGrad& grad, util::Rng& rng) {
  return apply(grad, rng, mode_);
}

}  // namespace dynkge::core
