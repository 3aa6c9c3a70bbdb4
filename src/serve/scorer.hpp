// Top-k link-prediction scoring.
//
// A query fixes one side of a triple and a relation — (h, r, ?) for tail
// prediction or (?, r, t) for head prediction — and asks for the k
// highest-scoring entities on the open side. The scorer scans the entity
// table in contiguous blocks (via KgeModel::score_{tails,heads}_block, so
// each model's h∘r precomposition is reused within a block) keeping a
// bounded size-k min-heap per block range; block results are merged at the
// end. Blocks are independent, so a thread pool turns one query into an
// embarrassingly parallel scan.
//
// The scorer holds no model: the model to score against is a per-call
// argument, because under streaming updates the serving layer answers
// each query from whichever immutable snapshot version it pinned
// (stream/SnapshotStore) — there is no longer a single model for the
// scorer to bind to.
//
// Ranking semantics match Evaluator::link_prediction: descending score,
// ties broken by ascending entity id (the evaluator counts only strictly
// greater scores, so any tie order is rank-compatible); with filtering on,
// entities forming a known-true triple in any dataset split are excluded —
// the "filtered" setting of KGE evaluation, and what a recommender wants
// ("predict new links, not facts we already store").
#pragma once

#include <cstdint>
#include <vector>

#include "kge/dataset.hpp"
#include "kge/model.hpp"
#include "util/thread_pool.hpp"

namespace dynkge::serve {

/// Which side of the triple is open.
enum class Direction : std::uint8_t {
  kTail,  ///< (h, r, ?) — `entity` is the head
  kHead,  ///< (?, r, t) — `entity` is the tail
};

struct TopKQuery {
  Direction direction = Direction::kTail;
  kge::EntityId entity = 0;       ///< the fixed entity (head or tail)
  kge::RelationId relation = 0;
  std::int32_t k = 10;
  bool filter_known = false;      ///< drop candidates that are known facts

  friend bool operator==(const TopKQuery&, const TopKQuery&) = default;
};

struct ScoredEntity {
  kge::EntityId entity = 0;
  double score = 0.0;

  friend bool operator==(const ScoredEntity&, const ScoredEntity&) = default;
};

using TopKResult = std::vector<ScoredEntity>;

class TopKScorer {
 public:
  /// `dataset` supplies the known-triple filter; nullptr disables
  /// `filter_known` (queries then return unfiltered results). The dataset
  /// must outlive the scorer.
  explicit TopKScorer(const kge::Dataset* dataset = nullptr,
                      std::size_t block_size = 4096)
      : dataset_(dataset), block_size_(block_size) {}

  /// Serial scan of `model`: one thread, still blocked for precomposition
  /// reuse.
  TopKResult topk(const TopKQuery& query, const kge::KgeModel& model) const;

  /// Parallel scan: entity blocks fan out across `pool`, partial top-k
  /// heaps merge at the end. Identical results to the serial overload.
  TopKResult topk(const TopKQuery& query, const kge::KgeModel& model,
                  util::ThreadPool& pool) const;

 private:
  /// Top-k over entities [begin, end), appended to `out` (unsorted).
  void scan_range(const TopKQuery& query, const kge::KgeModel& model,
                  kge::EntityId begin, kge::EntityId end,
                  TopKResult& out) const;

  /// Sort candidates by (score desc, id asc) and truncate to k.
  static void finalize(TopKResult& candidates, std::int32_t k);

  const kge::Dataset* dataset_;
  std::size_t block_size_;
};

}  // namespace dynkge::serve
