#include "serve/scorer.hpp"

#include <algorithm>
#include <mutex>
#include <span>
#include <stdexcept>
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

void validate(const TopKQuery& query, const kge::KgeModel& model) {
  if (query.k <= 0) throw std::invalid_argument("TopKScorer: k <= 0");
  if (query.entity < 0 || query.entity >= model.num_entities() ||
      query.relation < 0 || query.relation >= model.num_relations()) {
    throw std::out_of_range("TopKScorer: entity/relation out of range");
  }
}

}  // namespace

void TopKScorer::scan_range(const TopKQuery& query, const kge::KgeModel& model,
                            kge::EntityId begin, kge::EntityId end,
                            TopKResult& out) const {
  if (begin >= end) return;
  const bool filter =
      query.filter_known && dataset_ != nullptr;
  const auto k = static_cast<std::size_t>(query.k);

  // `heap` holds the best <= k candidates seen so far, weakest at front.
  TopKResult heap;
  heap.reserve(k + 1);
  const auto gt_weakest = [&](const ScoredEntity& c) {
    return heap.size() < k || weaker(heap.front(), c);
  };

  std::vector<double> scores(block_size_);
  for (kge::EntityId block = begin; block < end;
       block += static_cast<kge::EntityId>(block_size_)) {
    const auto count = static_cast<std::size_t>(
        std::min<std::int64_t>(static_cast<std::int64_t>(block_size_),
                               end - block));
    const std::span<double> block_scores(scores.data(), count);
    if (query.direction == Direction::kTail) {
      model.score_tails_block(query.entity, query.relation, block,
                              block_scores);
    } else {
      model.score_heads_block(query.relation, query.entity, block,
                              block_scores);
    }
    for (std::size_t i = 0; i < count; ++i) {
      const auto candidate =
          static_cast<kge::EntityId>(block + static_cast<kge::EntityId>(i));
      const ScoredEntity scored{candidate, block_scores[i]};
      if (!gt_weakest(scored)) continue;
      if (filter) {
        const bool known =
            query.direction == Direction::kTail
                ? dataset_->contains(query.entity, query.relation, candidate)
                : dataset_->contains(candidate, query.relation, query.entity);
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
  out.insert(out.end(), heap.begin(), heap.end());
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
  validate(query, model);
  TopKResult result;
  scan_range(query, model, 0, model.num_entities(), result);
  finalize(result, query.k);
  return result;
}

TopKResult TopKScorer::topk(const TopKQuery& query, const kge::KgeModel& model,
                            util::ThreadPool& pool) const {
  validate(query, model);
  TopKResult merged;
  std::mutex merge_mutex;
  pool.parallel_for(
      static_cast<std::size_t>(model.num_entities()),
      [&](std::size_t begin, std::size_t end) {
        TopKResult local;
        scan_range(query, model, static_cast<kge::EntityId>(begin),
                   static_cast<kge::EntityId>(end), local);
        std::lock_guard<std::mutex> lock(merge_mutex);
        merged.insert(merged.end(), local.begin(), local.end());
      });
  finalize(merged, query.k);
  return merged;
}

}  // namespace dynkge::serve
