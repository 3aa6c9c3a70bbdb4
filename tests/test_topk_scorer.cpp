#include "serve/scorer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "kge/complex_model.hpp"
#include "kge/evaluator.hpp"
#include "kge/model_factory.hpp"

namespace dynkge::serve {
namespace {

using kge::Dataset;
using kge::EntityId;
using kge::RelationId;
using kge::Triple;

constexpr std::int32_t kEntities = 60;
constexpr std::int32_t kRelations = 4;

/// A small dataset with deterministic pseudo-random splits.
Dataset make_dataset() {
  util::Rng rng(11);
  const auto triple = [&] {
    return Triple{static_cast<EntityId>(rng.next_below(kEntities)),
                  static_cast<RelationId>(rng.next_below(kRelations)),
                  static_cast<EntityId>(rng.next_below(kEntities))};
  };
  kge::TripleList train, valid, test;
  for (int i = 0; i < 120; ++i) train.push_back(triple());
  for (int i = 0; i < 20; ++i) valid.push_back(triple());
  for (int i = 0; i < 20; ++i) test.push_back(triple());
  return Dataset(kEntities, kRelations, train, valid, test);
}

std::unique_ptr<kge::KgeModel> make_trained_like_model() {
  auto model = kge::make_model("complex", kEntities, kRelations, 4);
  util::Rng rng(7);
  model->init(rng);
  return model;
}

/// Reference ordering: all entities sorted by (score desc, id asc).
TopKResult brute_force(const kge::KgeModel& model, const TopKQuery& q) {
  std::vector<double> scores(model.num_entities());
  if (q.direction == Direction::kTail) {
    model.score_all_tails(q.entity, q.relation, scores);
  } else {
    model.score_all_heads(q.relation, q.entity, scores);
  }
  TopKResult all;
  for (EntityId e = 0; e < model.num_entities(); ++e) {
    all.push_back({e, scores[e]});
  }
  std::sort(all.begin(), all.end(),
            [](const ScoredEntity& a, const ScoredEntity& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.entity < b.entity;
            });
  return all;
}

TEST(TopKScorer, MatchesBruteForceOrdering) {
  const auto model = make_trained_like_model();
  const TopKScorer scorer;
  for (const auto direction : {Direction::kTail, Direction::kHead}) {
    const TopKQuery q{direction, 3, 1, 10, false};
    const auto expected = brute_force(*model, q);
    const auto got = scorer.topk(q, *model);
    ASSERT_EQ(got.size(), 10u);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].entity, expected[i].entity) << "position " << i;
      EXPECT_DOUBLE_EQ(got[i].score, expected[i].score);
    }
  }
}

TEST(TopKScorer, ScoresAreModelScores) {
  const auto model = make_trained_like_model();
  const TopKScorer scorer;
  std::vector<double> tail_scores(kEntities), head_scores(kEntities);
  model->score_all_tails(5, 2, tail_scores);
  model->score_all_heads(2, 5, head_scores);

  const auto tails = scorer.topk({Direction::kTail, 5, 2, 5, false}, *model);
  for (const auto& [entity, score] : tails) {
    // Bit-exact vs the blocked scan the evaluator uses; within float
    // rounding of the per-triple score() (which composes in double).
    EXPECT_DOUBLE_EQ(score, tail_scores[entity]);
    EXPECT_NEAR(score, model->score(5, 2, entity),
                1e-5 * (1.0 + std::abs(score)));
  }
  const auto heads = scorer.topk({Direction::kHead, 5, 2, 5, false}, *model);
  for (const auto& [entity, score] : heads) {
    EXPECT_DOUBLE_EQ(score, head_scores[entity]);
    EXPECT_NEAR(score, model->score(entity, 2, 5),
                1e-5 * (1.0 + std::abs(score)));
  }
}

TEST(TopKScorer, ParallelMatchesSerial) {
  const auto model = make_trained_like_model();
  // Results must not depend on how the pool splits the table.
  const TopKScorer scorer;
  for (const std::size_t threads : {1u, 2u, 5u}) {
    util::ThreadPool pool(threads);
    for (EntityId e = 0; e < 8; ++e) {
      const TopKQuery q{Direction::kTail, e, e % kRelations, 12, false};
      EXPECT_EQ(scorer.topk(q, *model, pool), scorer.topk(q, *model))
          << "threads " << threads;
    }
  }
}

TEST(TopKScorer, BatchMatchesPerQueryTopk) {
  const auto model = make_trained_like_model();
  const Dataset dataset = make_dataset();
  const TopKScorer scorer(&dataset);
  // 19 queries: two whole scan tiles and a short one, directions,
  // relations, filtering and k mixed; k = kEntities and 1000 keep every
  // candidate that passes the filter.
  std::vector<TopKQuery> queries;
  for (EntityId e = 0; e < 19; ++e) {
    const std::int32_t k = e % 4 == 0   ? kEntities
                           : e % 4 == 1 ? 1000
                                        : 1 + e % 7;
    queries.push_back({e % 3 == 0 ? Direction::kHead : Direction::kTail,
                       (e * 7) % kEntities, e % kRelations, k, e % 2 == 0});
  }
  for (const std::size_t threads : {1u, 2u, 3u}) {
    util::ThreadPool pool(threads);
    for (const std::size_t n : {0u, 1u, 2u, 3u, 9u, 19u}) {
      const std::span<const TopKQuery> batch(queries.data(), n);
      const auto results = scorer.topk_batch(batch, *model, pool);
      ASSERT_EQ(results.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(results[i], scorer.topk(batch[i], *model))
            << "threads " << threads << " batch " << n << " query " << i;
      }
    }
  }
}

TEST(TopKScorer, FilterExcludesKnownTriples) {
  const auto model = make_trained_like_model();
  const Dataset dataset = make_dataset();
  const TopKScorer scorer(&dataset);
  const Triple probe = dataset.train()[0];
  const auto result = scorer.topk(
      {Direction::kTail, probe.head, probe.relation,
       static_cast<std::int32_t>(kEntities), true},
      *model);
  for (const auto& [entity, score] : result) {
    EXPECT_FALSE(dataset.contains(probe.head, probe.relation, entity));
  }
  // The known tail is present without the filter.
  const auto unfiltered = scorer.topk(
      {Direction::kTail, probe.head, probe.relation,
       static_cast<std::int32_t>(kEntities), false},
      *model);
  EXPECT_TRUE(std::any_of(unfiltered.begin(), unfiltered.end(),
                          [&](const ScoredEntity& s) {
                            return s.entity == probe.tail;
                          }));
}

/// The correctness anchor: ranks derived from TopKScorer results must
/// equal the ranks Evaluator::link_prediction computes, filtered and raw,
/// on both prediction sides, for every test triple.
TEST(TopKScorer, RankParityWithEvaluator) {
  const auto model = make_trained_like_model();
  const Dataset dataset = make_dataset();
  const kge::Evaluator evaluator(dataset);
  const TopKScorer scorer(&dataset);

  for (const bool filtered : {false, true}) {
    kge::EvalOptions options;
    options.filtered = filtered;
    for (const Triple& t : dataset.test()) {
      // Evaluator's rank for one triple, one side at a time:
      // mrr_{head,tail}_side of a single-triple evaluation is 1/rank.
      const auto metrics =
          evaluator.link_prediction(*model, std::span(&t, 1), options);
      const auto expected_head_rank =
          static_cast<std::size_t>(std::llround(1.0 / metrics.mrr_head_side));
      const auto expected_tail_rank =
          static_cast<std::size_t>(std::llround(1.0 / metrics.mrr_tail_side));

      // Scorer-derived rank: 1 + number of candidates that outscore the
      // true entity. With filtering the scorer drops known triples
      // entirely (including the true one) — exactly the candidates the
      // evaluator skips.
      const auto rank_from_scorer = [&](Direction direction) {
        const EntityId fixed =
            direction == Direction::kTail ? t.head : t.tail;
        const EntityId truth =
            direction == Direction::kTail ? t.tail : t.head;
        // True score exactly as the evaluator reads it: out of the
        // blocked scan, not the per-triple score() (float precompose
        // differs in the last bits).
        std::vector<double> all(kEntities);
        if (direction == Direction::kTail) {
          model->score_all_tails(t.head, t.relation, all);
        } else {
          model->score_all_heads(t.relation, t.tail, all);
        }
        const double true_score = all[truth];
        const auto result = scorer.topk(
            {direction, fixed, t.relation,
             static_cast<std::int32_t>(kEntities), filtered},
            *model);
        std::size_t rank = 1;
        for (const auto& [entity, score] : result) {
          rank += entity != truth && score > true_score;
        }
        return rank;
      };
      EXPECT_EQ(rank_from_scorer(Direction::kTail), expected_tail_rank);
      EXPECT_EQ(rank_from_scorer(Direction::kHead), expected_head_rank);
    }
  }
}

TEST(TopKScorer, TruncatesToK) {
  const auto model = make_trained_like_model();
  const TopKScorer scorer;
  EXPECT_EQ(scorer.topk({Direction::kTail, 0, 0, 3, false}, *model).size(), 3u);
  EXPECT_EQ(scorer.topk({Direction::kTail, 0, 0, 1000, false}, *model).size(),
            static_cast<std::size_t>(kEntities));
}

TEST(TopKScorer, RejectsBadQueries) {
  const auto model = make_trained_like_model();
  const TopKScorer scorer;
  EXPECT_THROW(scorer.topk({Direction::kTail, 0, 0, 0, false}, *model),
               std::invalid_argument);
  EXPECT_THROW(scorer.topk({Direction::kTail, kEntities, 0, 5, false}, *model),
               std::out_of_range);
  EXPECT_THROW(scorer.topk({Direction::kTail, 0, kRelations, 5, false}, *model),
               std::out_of_range);
  util::ThreadPool pool(2);
  EXPECT_THROW(scorer.topk({Direction::kTail, -1, 0, 5, false}, *model, pool),
               std::out_of_range);
  const TopKQuery batch[] = {{Direction::kTail, 0, 0, 5, false},
                             {Direction::kHead, 0, 0, 0, false}};
  EXPECT_THROW(scorer.topk_batch(batch, *model, pool), std::invalid_argument);
}

}  // namespace
}  // namespace dynkge::serve
