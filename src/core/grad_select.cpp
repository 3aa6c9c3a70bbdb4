#include "core/grad_select.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "util/span_math.hpp"

namespace dynkge::core {
namespace {

// Decide keep/drop for every row. Returns the kept count and fills `keep`
// (1 = keep). `ids` must be ascending (SparseGrad::sorted_ids guarantees
// it), which makes the Top-K tie-break — equal norms go to the smaller
// entity id — independent of hash-map iteration order and therefore
// byte-stable across ranks and host-pool sizes.
std::size_t mark_kept_rows(const std::vector<std::int32_t>& ids,
                           const std::vector<double>& norms,
                           SelectionMode mode, std::size_t topk_k,
                           util::Rng& rng, std::vector<char>& keep) {
  keep.assign(ids.size(), 1);
  if (mode == SelectionMode::kNone) return ids.size();

  if (mode == SelectionMode::kTopK) {
    if (topk_k >= ids.size()) return ids.size();
    std::vector<std::size_t> order(ids.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (norms[a] != norms[b]) return norms[a] > norms[b];
      return ids[a] < ids[b];
    });
    std::fill(keep.begin(), keep.end(), 0);
    for (std::size_t i = 0; i < topk_k; ++i) keep[order[i]] = 1;
    return topk_k;
  }

  double mean_norm = 0.0;
  for (const double norm : norms) mean_norm += norm;
  mean_norm /= static_cast<double>(ids.size());
  if (mean_norm <= 0.0) return ids.size();  // all-zero gradient: keep all

  std::size_t kept = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
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

std::vector<double> row_norms(const kge::SparseGrad& grad,
                              const std::vector<std::int32_t>& ids) {
  std::vector<double> norms(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    norms[i] = util::nrm2(grad.row(ids[i]));
  }
  return norms;
}

}  // namespace

SelectionStats select_gradient_rows(kge::SparseGrad& grad, SelectionMode mode,
                                    util::Rng& rng, std::size_t topk_k,
                                    kge::ResidualMap* parked) {
  SelectionStats stats;
  stats.rows_before = grad.num_rows();
  stats.rows_after = stats.rows_before;
  if (mode == SelectionMode::kNone || grad.empty()) return stats;

  // Snapshot ids first: erasing while iterating sorted_ids() would
  // invalidate the cached id list.
  const std::vector<std::int32_t> ids = grad.sorted_ids();
  const std::vector<double> norms = row_norms(grad, ids);

  std::vector<char> keep;
  stats.rows_after = mark_kept_rows(ids, norms, mode, topk_k, rng, keep);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (keep[i]) continue;
    if (parked != nullptr) {
      const auto row = grad.row(ids[i]);
      (*parked)[ids[i]].assign(row.begin(), row.end());
    }
    grad.erase(ids[i]);
  }
  return stats;
}

SelectionStats GradSelector::apply(kge::SparseGrad& grad, util::Rng& rng,
                                   SelectionMode mode) {
  if (!accumulate_residuals_) {
    return select_gradient_rows(grad, mode, rng, topk_k_);
  }
  // Fold parked residuals into the rows present this step, so selection
  // sees the residual-augmented norms. Rows whose residual is parked but
  // which are absent from this step's gradient stay parked (they flow in
  // whenever the row is next touched).
  for (const kge::SparseGrad::SlotRef& slot : grad.sorted_slots()) {
    const auto it = residual_.find(slot.id);
    if (it == residual_.end()) continue;
    const std::span<float> row = grad.row_at(slot.offset);
    for (std::size_t i = 0; i < row.size(); ++i) row[i] += it->second[i];
    residual_.erase(it);
  }
  return select_gradient_rows(grad, mode, rng, topk_k_, &residual_);
}

SelectionStats GradSelector::apply(kge::SparseGrad& grad, util::Rng& rng) {
  return apply(grad, rng, mode_);
}

}  // namespace dynkge::core
