#include "kge/evaluator.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace dynkge::kge {
namespace {

/// Best achievable accuracy threshold over (score, is_positive) pairs:
/// classify score >= threshold as positive. Returns the threshold.
double fit_threshold(std::vector<std::pair<double, bool>>& pairs) {
  // Sort descending by score; sweep the threshold between positions.
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  const std::size_t total = pairs.size();
  std::size_t positives_total = 0;
  for (const auto& [score, positive] : pairs) positives_total += positive;

  // Threshold above everything: all classified negative.
  auto correct = static_cast<long long>(total - positives_total);
  long long best_correct = correct;
  double best_threshold =
      pairs.empty() ? 0.0 : pairs.front().first + 1.0;
  for (std::size_t i = 0; i < total; ++i) {
    // Move the threshold just below pairs[i].first: item i (and ties
    // handled by the loop) flips to "classified positive".
    correct += pairs[i].second ? 1 : -1;
    if (correct > best_correct &&
        (i + 1 == total || pairs[i + 1].first < pairs[i].first)) {
      best_correct = correct;
      best_threshold = (i + 1 == total)
                           ? pairs[i].first - 1.0
                           : 0.5 * (pairs[i].first + pairs[i + 1].first);
    }
  }
  return best_threshold;
}

}  // namespace

RankingMetrics Evaluator::link_prediction(const KgeModel& model,
                                          std::span<const Triple> triples,
                                          const EvalOptions& options,
                                          util::ThreadPool* pool) const {
  const std::size_t stride =
      (options.max_triples != 0 && triples.size() > options.max_triples)
          ? (triples.size() + options.max_triples - 1) / options.max_triples
          : 1;
  // The ranked triples are triples[i * stride]; query 2i replaces the
  // head of triple i, query 2i + 1 its tail.
  const std::size_t count = (triples.size() + stride - 1) / stride;
  const auto num_entities = static_cast<std::size_t>(model.num_entities());
  constexpr std::size_t kTriplesPerTile = kScanTile / 2;
  const std::size_t num_tiles =
      (count + kTriplesPerTile - 1) / kTriplesPerTile;

  const auto rank_of = [&](const Triple& t, bool corrupt_head,
                           const double* side_scores) {
    const EntityId true_entity = corrupt_head ? t.head : t.tail;
    const double true_score = side_scores[true_entity];
    std::size_t rank = 1;
    for (EntityId e = 0; e < model.num_entities(); ++e) {
      if (e == true_entity || side_scores[e] <= true_score) continue;
      if (options.filtered) {
        const bool known = corrupt_head
                               ? dataset_->contains(e, t.relation, t.tail)
                               : dataset_->contains(t.head, t.relation, e);
        if (known) continue;
      }
      ++rank;
    }
    return rank;
  };

  // Ranks are taken tile by tile: the head and tail queries of up to
  // kScanTile / 2 triples are scored in one entity scan. Each chunk of
  // tiles owns a score buffer and writes only its queries' rank slots,
  // so the ranks do not depend on how the tiles are split.
  std::vector<std::size_t> ranks(2 * count);
  const auto rank_tiles = [&](std::size_t first_tile, std::size_t end_tile) {
    std::vector<double> scores(kScanTile * num_entities);
    std::vector<EntityQuery> queries;
    for (std::size_t tile = first_tile; tile < end_tile; ++tile) {
      const std::size_t first = tile * kTriplesPerTile;
      const std::size_t end = std::min(count, first + kTriplesPerTile);
      queries.clear();
      for (std::size_t i = first; i < end; ++i) {
        const Triple& t = triples[i * stride];
        queries.push_back({Direction::kHead, t.tail, t.relation});
        queries.push_back({Direction::kTail, t.head, t.relation});
      }
      model.score_entities_block(queries, 0, num_entities, scores);
      for (std::size_t q = 0; q < queries.size(); ++q) {
        ranks[2 * first + q] =
            rank_of(triples[(first + q / 2) * stride], q % 2 == 0,
                    scores.data() + q * num_entities);
      }
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(num_tiles, rank_tiles);
  } else {
    rank_tiles(0, num_tiles);
  }

  // The sums run in query order whatever the split.
  double mrr_sum = 0.0, rank_sum = 0.0;
  double mrr_head_sum = 0.0, mrr_tail_sum = 0.0;
  std::size_t hits1 = 0, hits3 = 0, hits10 = 0;
  for (std::size_t q = 0; q < ranks.size(); ++q) {
    const std::size_t rank = ranks[q];
    const double reciprocal = 1.0 / static_cast<double>(rank);
    mrr_sum += reciprocal;
    (q % 2 == 0 ? mrr_head_sum : mrr_tail_sum) += reciprocal;
    rank_sum += static_cast<double>(rank);
    hits1 += rank <= 1;
    hits3 += rank <= 3;
    hits10 += rank <= 10;
  }

  RankingMetrics metrics;
  const std::size_t evaluated = ranks.size();
  if (evaluated != 0) {
    metrics.mrr = mrr_sum / static_cast<double>(evaluated);
    metrics.mean_rank = rank_sum / static_cast<double>(evaluated);
    metrics.hits1 = static_cast<double>(hits1) / evaluated;
    metrics.hits3 = static_cast<double>(hits3) / evaluated;
    metrics.hits10 = static_cast<double>(hits10) / evaluated;
    // Each side ranks exactly half of `evaluated`.
    metrics.mrr_head_side = mrr_head_sum / (evaluated / 2.0);
    metrics.mrr_tail_side = mrr_tail_sum / (evaluated / 2.0);
  }
  metrics.evaluated = evaluated;
  return metrics;
}

double Evaluator::classification_accuracy(const KgeModel& model,
                                          std::span<const Triple> fit_split,
                                          std::span<const Triple> eval_split,
                                          std::uint64_t seed) const {
  if (fit_split.empty() || eval_split.empty()) return 0.0;
  util::Rng fit_rng(util::derive_seed(seed, 0x7CA));
  util::Rng eval_rng(util::derive_seed(seed, 0x7CB));

  // scores[2i] is positive i's score and scores[2i + 1] that of one fresh
  // corruption of it. A split's corruptions are all drawn before any is
  // scored (scoring consumes no RNG), then scored in one blocked call.
  const auto score_pairs = [&](std::span<const Triple> split,
                               util::Rng& rng) {
    TripleList examples;
    examples.reserve(2 * split.size());
    for (const Triple& pos : split) {
      examples.push_back(pos);
      examples.push_back(sampler_.corrupt(pos, rng));
    }
    std::vector<double> scores(examples.size());
    model.score_triples_block(examples, scores);
    return scores;
  };

  // Fit per-relation thresholds on the fit split.
  const std::vector<double> fit_scores = score_pairs(fit_split, fit_rng);
  std::unordered_map<RelationId, std::vector<std::pair<double, bool>>>
      by_relation;
  std::vector<std::pair<double, bool>> all_pairs;
  for (std::size_t i = 0; i < fit_split.size(); ++i) {
    const double pos_score = fit_scores[2 * i];
    const double neg_score = fit_scores[2 * i + 1];
    auto& pairs = by_relation[fit_split[i].relation];
    pairs.emplace_back(pos_score, true);
    pairs.emplace_back(neg_score, false);
    all_pairs.emplace_back(pos_score, true);
    all_pairs.emplace_back(neg_score, false);
  }
  std::unordered_map<RelationId, double> thresholds;
  thresholds.reserve(by_relation.size());
  for (auto& [relation, pairs] : by_relation) {
    thresholds[relation] = fit_threshold(pairs);
  }
  const double global_threshold = fit_threshold(all_pairs);

  // Classify the eval split (positives + fresh negatives).
  const std::vector<double> eval_scores = score_pairs(eval_split, eval_rng);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < eval_split.size(); ++i) {
    const auto it = thresholds.find(eval_split[i].relation);
    const double threshold =
        it != thresholds.end() ? it->second : global_threshold;
    correct += eval_scores[2 * i] >= threshold;
    correct += eval_scores[2 * i + 1] < threshold;
  }
  return 100.0 * static_cast<double>(correct) /
         static_cast<double>(eval_scores.size());
}

namespace {

std::span<const Triple> capped(std::span<const Triple> split,
                               std::size_t max_triples) {
  if (max_triples == 0 || split.size() <= max_triples) return split;
  return split.subspan(0, max_triples);
}

}  // namespace

double Evaluator::triple_classification_accuracy(
    const KgeModel& model, std::uint64_t seed, std::size_t max_triples) const {
  return classification_accuracy(model, capped(dataset_->valid(), max_triples),
                                 capped(dataset_->test(), max_triples), seed);
}

double Evaluator::validation_accuracy(const KgeModel& model,
                                      std::uint64_t seed,
                                      std::size_t max_triples) const {
  const auto split = capped(dataset_->valid(), max_triples);
  return classification_accuracy(model, split, split, seed);
}

std::pair<double, std::size_t> Evaluator::validation_accuracy_subset(
    const KgeModel& model, std::span<const Triple> subset,
    std::uint64_t seed) const {
  if (subset.empty()) return {0.0, 0};
  return {classification_accuracy(model, subset, subset, seed),
          2 * subset.size()};
}

}  // namespace dynkge::kge
