// Sparse-row Adam (Kingma & Ba, 2014), the paper's optimizer.
//
// KGE gradients touch only a handful of embedding rows per step, so moment
// estimates are updated lazily per touched row while the bias-correction
// step count t is global — the "sparse Adam" semantics of the TensorFlow
// setup the paper used. The paper's L2 regularization term lambda||theta||^2
// is applied as per-row weight decay (gradient += 2*lambda*theta_row).
//
// Determinism note: in distributed training every replica applies identical
// updates to identical rows in identical (sorted) order, so replicas stay
// bit-identical — an invariant the tests assert.
#pragma once

#include <cstdint>
#include <vector>

#include "kge/embedding.hpp"

namespace dynkge::kge {

struct AdamConfig {
  double learning_rate = 0.001;  ///< paper's initial LR (before node scaling)
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
  double weight_decay = 0.0;  ///< 2*lambda of the paper's L2 penalty
};

class RowAdam {
 public:
  RowAdam(std::int32_t rows, std::int32_t width, AdamConfig config = {});

  /// Advance the global step and precompute the bias corrections. Call once
  /// per optimizer step, before any update_row of that step.
  void begin_step();

  /// Apply one Adam update to `params.row(row)` with gradient `grad`.
  void update_row(std::int32_t row, std::span<const float> grad,
                  EmbeddingMatrix& params);

  /// Blocked form (adam_block.cpp): apply one Adam update per row of
  /// `grads`, in ascending id order — byte-identical to calling update_row
  /// for each sorted id, but without the per-row hash lookups and with a
  /// vectorizable inner loop (the TU drops libm errno).
  void update_rows(const SparseGrad& grads, EmbeddingMatrix& params);

  /// update_rows after scaling every gradient row by `scale` in place
  /// (the relation-partition path divides the local gradient by the node
  /// count before the update). Byte-identical to scaling each row, then
  /// calling update_row on it.
  void update_rows_scaled(SparseGrad& grads, float scale,
                          EmbeddingMatrix& params);

  /// update_rows for the ids in `rows` only (ascending, unique), whose
  /// moments sit at their rank: moment row k belongs to rows[k], so an
  /// optimizer with rows.size() moment rows serves a few rows of a larger
  /// `params` (the stream refresh keeps moments for a batch's touched rows
  /// only). Gradient rows of other ids are skipped. Returns the number of
  /// rows updated. Each update is byte-identical to update_rows'.
  std::size_t update_listed_rows(const SparseGrad& grads,
                                 std::span<const std::int32_t> rows,
                                 EmbeddingMatrix& params);

  double learning_rate() const { return config_.learning_rate; }
  void set_learning_rate(double lr) { config_.learning_rate = lr; }
  const AdamConfig& config() const { return config_; }
  std::int64_t step() const { return step_; }

  /// Snapshot accessors: the persistent state is (step, m, v). The bias
  /// corrections are derived from step by the next begin_step().
  const EmbeddingMatrix& moment1() const { return m_; }
  const EmbeddingMatrix& moment2() const { return v_; }

  /// Restore the persistent state from a checkpoint. Throws
  /// std::invalid_argument if the moment shapes do not match this
  /// optimizer's shape or `step` is negative.
  void restore(std::int64_t step, EmbeddingMatrix m, EmbeddingMatrix v);

 private:
  AdamConfig config_;
  std::int64_t step_ = 0;
  double bias1_ = 1.0;  ///< 1 - beta1^t
  double bias2_ = 1.0;  ///< 1 - beta2^t
  EmbeddingMatrix m_;   ///< first-moment estimates
  EmbeddingMatrix v_;   ///< second-moment estimates
};

}  // namespace dynkge::kge
