#include "serve/scorer.hpp"

#include <algorithm>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace dynkge::serve {
namespace {

/// Rank order: a is weaker than b if it scores lower, ties resolved so
/// that the larger id loses (rank order prefers smaller ids on equal
/// score).
bool weaker(const ScoredEntity& a, const ScoredEntity& b) {
  if (a.score != b.score) return a.score < b.score;
  return a.entity > b.entity;
}

/// Heap comparator for std::{push,pop}_heap, which keep the *greatest*
/// element (under the comparator) at front: inverting `weaker` makes the
/// front the weakest candidate — the one a bounded top-k heap evicts.
bool stronger(const ScoredEntity& a, const ScoredEntity& b) {
  return weaker(b, a);
}

/// Entities per entity-scan call: each block's scores of every query of
/// a pass are taken into the heaps before the next block is scored.
constexpr std::size_t kBlock = 1024;

}  // namespace

void validate_query(const TopKQuery& query, const kge::KgeModel& model) {
  if (query.k <= 0 || query.k > kMaxTopK) {
    throw std::invalid_argument("TopKScorer: k = " + std::to_string(query.k) +
                                " is outside [1, " +
                                std::to_string(kMaxTopK) + "]");
  }
  if (query.entity < 0 || query.entity >= model.num_entities() ||
      query.relation < 0 || query.relation >= model.num_relations()) {
    throw std::out_of_range("TopKScorer: entity/relation out of range");
  }
}

void TopKScorer::scan_range(std::span<const TopKQuery> queries,
                            const kge::KgeModel& model, kge::EntityId begin,
                            kge::EntityId end,
                            std::vector<TopKResult>& out) const {
  if (begin >= end) return;
  const std::size_t n = queries.size();
  const auto length = static_cast<std::size_t>(end - begin);
  std::vector<kge::EntityQuery> scan(n);
  // heaps[q] holds query q's best <= k candidates so far, weakest at
  // front.
  std::vector<TopKResult> heaps(n);
  for (std::size_t q = 0; q < n; ++q) {
    scan[q] = {queries[q].direction, queries[q].entity, queries[q].relation};
    heaps[q].reserve(
        std::min(static_cast<std::size_t>(queries[q].k), length) + 1);
  }

  std::vector<double> scores(n * std::min(kBlock, length));
  for (kge::EntityId block = begin; block < end;
       block += static_cast<kge::EntityId>(kBlock)) {
    const std::size_t count =
        std::min(kBlock, static_cast<std::size_t>(end - block));
    model.score_entities_block(scan, block, count, scores);
    for (std::size_t q = 0; q < n; ++q) {
      const TopKQuery& query = queries[q];
      const bool filter = query.filter_known && dataset_ != nullptr;
      const auto k = static_cast<std::size_t>(query.k);
      TopKResult& heap = heaps[q];
      const double* block_scores = scores.data() + q * count;
      for (std::size_t i = 0; i < count; ++i) {
        const ScoredEntity scored{block + static_cast<kge::EntityId>(i),
                                  block_scores[i]};
        if (heap.size() == k && !weaker(heap.front(), scored)) continue;
        if (filter) {
          const bool known =
              query.direction == Direction::kTail
                  ? dataset_->contains(query.entity, query.relation,
                                       scored.entity)
                  : dataset_->contains(scored.entity, query.relation,
                                       query.entity);
          if (known) continue;
        }
        heap.push_back(scored);
        std::push_heap(heap.begin(), heap.end(), stronger);
        if (heap.size() > k) {
          std::pop_heap(heap.begin(), heap.end(), stronger);
          heap.pop_back();
        }
      }
    }
  }
  for (std::size_t q = 0; q < n; ++q) {
    out[q].insert(out[q].end(), heaps[q].begin(), heaps[q].end());
  }
}

void TopKScorer::finalize(TopKResult& candidates, std::int32_t k) {
  std::sort(candidates.begin(), candidates.end(),
            [](const ScoredEntity& a, const ScoredEntity& b) {
              return weaker(b, a);  // score desc, id asc
            });
  if (candidates.size() > static_cast<std::size_t>(k)) {
    candidates.resize(static_cast<std::size_t>(k));
  }
}

TopKResult TopKScorer::topk(const TopKQuery& query,
                            const kge::KgeModel& model) const {
  validate_query(query, model);
  std::vector<TopKResult> result(1);
  scan_range({&query, 1}, model, 0, model.num_entities(), result);
  finalize(result[0], query.k);
  return std::move(result[0]);
}

TopKResult TopKScorer::topk(const TopKQuery& query, const kge::KgeModel& model,
                            util::ThreadPool& pool) const {
  return std::move(topk_batch({&query, 1}, model, pool)[0]);
}

std::vector<TopKResult> TopKScorer::topk_batch(
    std::span<const TopKQuery> queries, const kge::KgeModel& model,
    util::ThreadPool& pool) const {
  for (const TopKQuery& query : queries) validate_query(query, model);
  std::vector<TopKResult> merged(queries.size());
  if (queries.empty()) return merged;
  std::mutex merge_mutex;
  pool.parallel_for(
      static_cast<std::size_t>(model.num_entities()),
      [&](std::size_t begin, std::size_t end) {
        std::vector<TopKResult> local(queries.size());
        scan_range(queries, model, static_cast<kge::EntityId>(begin),
                   static_cast<kge::EntityId>(end), local);
        std::lock_guard<std::mutex> lock(merge_mutex);
        for (std::size_t q = 0; q < queries.size(); ++q) {
          merged[q].insert(merged[q].end(), local[q].begin(),
                           local[q].end());
        }
      });
  for (std::size_t q = 0; q < queries.size(); ++q) {
    finalize(merged[q], queries[q].k);
  }
  return merged;
}

}  // namespace dynkge::serve
