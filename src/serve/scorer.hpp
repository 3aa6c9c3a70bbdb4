// Top-k link-prediction scoring.
//
// A query fixes one side of a triple and a relation — (h, r, ?) for tail
// prediction or (?, r, t) for head prediction — and asks for the k
// highest-scoring entities on the open side. The scorer scans the entity
// table in contiguous blocks through KgeModel::score_entities_block, which
// composes each query once per block and, for several queries, reads each
// candidate row once for a whole tile of them. Each query keeps a bounded
// size-k min-heap per scanned range; range results are merged at the end.
// Ranges are independent, so a thread pool splits the table across its
// workers, and a batch of queries is answered in one pass over the table:
// every worker scores every query of the batch in each of its blocks.
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
#include <span>
#include <vector>

#include "kge/dataset.hpp"
#include "kge/model.hpp"
#include "util/thread_pool.hpp"

namespace dynkge::serve {

/// Which side of the triple is open (kTail: `entity` is the head; kHead:
/// `entity` is the tail).
using kge::Direction;

/// Largest k a query may ask for: the 16 bits of k a cache key keeps
/// (serve/query_cache.hpp pack_query).
inline constexpr std::int32_t kMaxTopK = 0xFFFF;

struct TopKQuery {
  Direction direction = Direction::kTail;
  kge::EntityId entity = 0;       ///< the fixed entity (head or tail)
  kge::RelationId relation = 0;
  std::int32_t k = 10;            ///< 1..kMaxTopK
  bool filter_known = false;      ///< drop candidates that are known facts

  friend bool operator==(const TopKQuery&, const TopKQuery&) = default;
};

/// Throws std::invalid_argument unless 1 <= k <= kMaxTopK, and
/// std::out_of_range unless the entity and relation are ids of `model`.
/// TopKScorer checks every query; InferenceService checks before its
/// cache lookup, so a query the scorer would refuse never aliases a
/// cached answer.
void validate_query(const TopKQuery& query, const kge::KgeModel& model);

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
  explicit TopKScorer(const kge::Dataset* dataset = nullptr)
      : dataset_(dataset) {}

  /// Serial scan of `model`: one thread, one query.
  TopKResult topk(const TopKQuery& query, const kge::KgeModel& model) const;

  /// Parallel scan: entity ranges fan out across `pool`, partial top-k
  /// heaps merge at the end. Identical results to the serial overload.
  TopKResult topk(const TopKQuery& query, const kge::KgeModel& model,
                  util::ThreadPool& pool) const;

  /// Every query in one parallel pass: the entity table is split across
  /// `pool`, and each task scores all the queries over each block of its
  /// range, keeping one heap per query. results[i] answers queries[i],
  /// identical to topk(queries[i], model). Every query is validated first;
  /// one refused query throws for the whole batch.
  std::vector<TopKResult> topk_batch(std::span<const TopKQuery> queries,
                                     const kge::KgeModel& model,
                                     util::ThreadPool& pool) const;

 private:
  /// Top-k of each query over entities [begin, end), appended to out[q]
  /// (unsorted).
  void scan_range(std::span<const TopKQuery> queries,
                  const kge::KgeModel& model, kge::EntityId begin,
                  kge::EntityId end, std::vector<TopKResult>& out) const;

  /// Sort candidates by (score desc, id asc) and truncate to k.
  static void finalize(TopKResult& candidates, std::int32_t k);

  const kge::Dataset* dataset_;
};

}  // namespace dynkge::serve
