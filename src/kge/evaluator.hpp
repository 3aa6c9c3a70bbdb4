// Standard KGE evaluation (paper section 3.2, following ComplEx/OpenKE):
//
//  * Link prediction: for every test triple, replace the head with every
//    entity, rank the true triple by score, take the reciprocal rank; same
//    with the tail; average. "Filtered" skips candidate corruptions that
//    are themselves known-true triples in any split.
//
//  * Triple classification accuracy (TCA): per-relation score thresholds
//    are fitted on the validation split (positives + sampled negatives)
//    and applied to the test split with fresh negatives; accuracy is the
//    fraction of correctly classified triples.
#pragma once

#include <cstdint>
#include <span>

#include "kge/dataset.hpp"
#include "kge/model.hpp"
#include "kge/negative_sampler.hpp"

namespace dynkge::util {
class ThreadPool;  // util/thread_pool.hpp
}  // namespace dynkge::util

namespace dynkge::kge {

struct EvalOptions {
  bool filtered = true;        ///< filtered-MRR as reported in the paper
  std::size_t max_triples = 0; ///< 0 = evaluate all; else a deterministic
                               ///< stride subsample (keeps benches fast)
};

struct RankingMetrics {
  double mrr = 0.0;
  double mean_rank = 0.0;
  double hits1 = 0.0;
  double hits3 = 0.0;
  double hits10 = 0.0;
  std::size_t evaluated = 0;  ///< number of (triple, side) rankings

  /// Side breakdown (standard KGE reporting): ranking with the head
  /// replaced vs with the tail replaced. For 1-N relations predicting
  /// the "1" side is much easier than the "N" side.
  double mrr_head_side = 0.0;  ///< head replaced by every entity
  double mrr_tail_side = 0.0;  ///< tail replaced by every entity
};

class Evaluator {
 public:
  explicit Evaluator(const Dataset& dataset)
      : dataset_(&dataset), sampler_(dataset, /*filter_known=*/true) {}

  /// Rank-based metrics over `triples` (usually dataset.test()). With a
  /// `pool`, the entity-scan tiles are split across its workers; the
  /// metrics are byte-identical to the serial call for any pool size (each
  /// query's rank lands in its own slot, and the sums run in query order).
  /// Must not be called from a worker of `pool`.
  RankingMetrics link_prediction(const KgeModel& model,
                                 std::span<const Triple> triples,
                                 const EvalOptions& options = {},
                                 util::ThreadPool* pool = nullptr) const;

  /// TCA in percent: thresholds fitted on valid, measured on test.
  /// `max_triples` != 0 caps both splits (prefix subsample) for speed.
  double triple_classification_accuracy(const KgeModel& model,
                                        std::uint64_t seed = 7,
                                        std::size_t max_triples = 0) const;

  /// Validation-split accuracy in percent (thresholds and measurement both
  /// on valid) — the quantity the paper's plateau LR scheduler watches.
  double validation_accuracy(const KgeModel& model, std::uint64_t seed = 7,
                             std::size_t max_triples = 0) const;

  /// Accuracy over an arbitrary triple subset (thresholds fit on the same
  /// subset). Returns {accuracy percent, classified pairs}; {0, 0} for an
  /// empty subset. Used for distributed validation under relation
  /// partition, where each rank can only score the relations it owns.
  std::pair<double, std::size_t> validation_accuracy_subset(
      const KgeModel& model, std::span<const Triple> subset,
      std::uint64_t seed = 7) const;

 private:
  double classification_accuracy(const KgeModel& model,
                                 std::span<const Triple> fit_split,
                                 std::span<const Triple> eval_split,
                                 std::uint64_t seed) const;

  const Dataset* dataset_;
  NegativeSampler sampler_;
};

}  // namespace dynkge::kge
