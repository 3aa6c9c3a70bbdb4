// Strategy 2 — selecting the gradient vectors (paper section 4.2).
//
// The 2-norm of a gradient row is used as a proxy for its contribution to
// the loss decrease. Rows are dropped from communication either by a hard
// threshold on the norm (the "average" and "averagex0.1" baselines of
// figure 3) or — the paper's choice — by a Bernoulli draw per row:
//
//   P(keep row i) = min(1, ||g_i||_2 / C),   C = mean row 2-norm,
//
// so weak rows still occasionally get through instead of being starved.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "core/strategy_config.hpp"
#include "kge/embedding.hpp"
#include "util/rng.hpp"

namespace dynkge::core {

struct SelectionStats {
  std::size_t rows_before = 0;
  std::size_t rows_after = 0;

  /// Fraction of rows dropped (the "sparsity" series of figure 3b).
  double sparsity() const {
    return rows_before == 0
               ? 0.0
               : 1.0 - static_cast<double>(rows_after) /
                           static_cast<double>(rows_before);
  }
};

/// Drop rows of `grad` in place according to `mode`. `rng` is only used by
/// the Bernoulli mode; `topk_k` only by SelectionMode::kTopK (the number of
/// rows to keep, ties broken toward the smaller entity id). With `parked`
/// (a store of `grad`'s width), each dropped row's values are stored there
/// under its id. Returns before/after row counts.
SelectionStats select_gradient_rows(kge::SparseGrad& grad, SelectionMode mode,
                                    util::Rng& rng, std::size_t topk_k = 0,
                                    kge::SparseGrad* parked = nullptr);

/// Stateful selector with optional residual accumulation (Aji & Heafield
/// 2017, cited in the paper's related work): the values of dropped rows
/// are remembered and folded back into the gradient the next time the row
/// appears, so repeatedly-weak rows eventually deliver their full
/// contribution instead of being starved forever. The parked rows live in
/// one store of the gradient's row `width`; a row folded back in frees its
/// arena row for the next one parked, so the store stays at its peak row
/// count.
class GradSelector {
 public:
  GradSelector(std::int32_t width, SelectionMode mode,
               bool accumulate_residuals, std::size_t topk_k = 0)
      : mode_(mode),
        accumulate_residuals_(accumulate_residuals),
        topk_k_(topk_k),
        residual_(width) {}

  /// Fold parked residuals into `grad`, then select rows, parking the
  /// ones dropped. Mutates `grad` in place.
  SelectionStats apply(kge::SparseGrad& grad, util::Rng& rng);

  /// Like apply(), but with the mode overridden for this call. The dynamic
  /// Top-K arm uses this so one selector (and one residual store) serves
  /// whatever selection the probe schedule picked for the epoch — the
  /// residual mass parked by one arm is redelivered by the next.
  SelectionStats apply(kge::SparseGrad& grad, util::Rng& rng,
                       SelectionMode mode);

  /// Number of rows currently parked as residuals.
  std::size_t pending_rows() const { return residual_.num_rows(); }

  /// Checkpoint access: the parked residual rows are part of the training
  /// state (dropping them on resume would change which gradient mass the
  /// next epochs deliver).
  const kge::SparseGrad& residuals() const { return residual_; }
  void restore_residuals(kge::SparseGrad residuals) {
    residual_ = std::move(residuals);
  }

 private:
  SelectionMode mode_;
  bool accumulate_residuals_;
  std::size_t topk_k_;
  kge::SparseGrad residual_;
};

}  // namespace dynkge::core
