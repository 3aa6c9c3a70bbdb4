#include "kge/evaluator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "kge/complex_model.hpp"
#include "kge/synthetic.hpp"
#include "util/thread_pool.hpp"

namespace dynkge::kge {
namespace {

/// A test model scored through score_triples_block alone: its entity scan
/// scores each (query, candidate) triple, and it takes no gradients.
class TripleScoredModel : public KgeModel {
 public:
  TripleScoredModel(std::int32_t num_entities, std::int32_t num_relations)
      : KgeModel(num_entities, num_relations, 1, 1) {}

  void init(util::Rng&) override {}
  void accumulate_gradients_block(std::span<const GradWork>) const override {}

  void score_entities_block(std::span<const EntityQuery> queries,
                            EntityId begin, std::size_t count,
                            std::span<double> out) const override {
    TripleList triples;
    for (const EntityQuery& q : queries) {
      for (std::size_t j = 0; j < count; ++j) {
        const EntityId e = begin + static_cast<EntityId>(j);
        triples.push_back(q.direction == Direction::kTail
                              ? Triple{q.entity, q.relation, e}
                              : Triple{e, q.relation, q.entity});
      }
    }
    score_triples_block(triples, out.first(triples.size()));
  }
};

/// A stub model whose scores are read from a lookup we control exactly.
class StubModel final : public TripleScoredModel {
 public:
  StubModel(std::int32_t num_entities, std::int32_t num_relations)
      : TripleScoredModel(num_entities, num_relations) {}

  std::string name() const override { return "Stub"; }
  ModelSpec spec() const override { return {"stub", 1, 0.0f}; }

  void set_score(EntityId h, RelationId r, EntityId t, double s) {
    scores_[pack_triple(h, r, t)] = s;
  }

  void score_triples_block(std::span<const Triple> triples,
                           std::span<double> out) const override {
    for (std::size_t i = 0; i < triples.size(); ++i) {
      const auto it = scores_.find(pack_triple(triples[i]));
      out[i] = it != scores_.end() ? it->second : -100.0;
    }
  }

 private:
  std::unordered_map<std::uint64_t, double> scores_;
};

/// Scores every triple 0 and keeps each score_triples_block call's block.
class RecordingModel final : public TripleScoredModel {
 public:
  RecordingModel(std::int32_t num_entities, std::int32_t num_relations)
      : TripleScoredModel(num_entities, num_relations) {}

  std::string name() const override { return "Recording"; }
  ModelSpec spec() const override { return {"recording", 1, 0.0f}; }

  void score_triples_block(std::span<const Triple> triples,
                           std::span<double> out) const override {
    blocks_.emplace_back(triples.begin(), triples.end());
    std::fill(out.begin(), out.end(), 0.0);
  }

  const std::vector<TripleList>& blocks() const { return blocks_; }

 private:
  mutable std::vector<TripleList> blocks_;
};

/// Scores 10 * relation, plus 1 for a triple the dataset knows and minus 1
/// for any other: each relation's positives and negatives separate, but
/// no single threshold separates those of every relation.
class RelationShiftedModel final : public TripleScoredModel {
 public:
  explicit RelationShiftedModel(const Dataset& dataset)
      : TripleScoredModel(dataset.num_entities(), dataset.num_relations()),
        dataset_(&dataset) {}

  std::string name() const override { return "RelationShifted"; }
  ModelSpec spec() const override { return {"relation_shifted", 1, 0.0f}; }

  void score_triples_block(std::span<const Triple> triples,
                           std::span<double> out) const override {
    for (std::size_t i = 0; i < triples.size(); ++i) {
      out[i] = 10.0 * triples[i].relation +
               (dataset_->contains(triples[i]) ? 1.0 : -1.0);
    }
  }

 private:
  const Dataset* dataset_;
};

TEST(Evaluator, PerfectRankGivesMrrOne) {
  // 4 entities, 1 relation; the true triple outranks all corruptions.
  const Dataset ds(4, 1, {{0, 0, 1}}, {{0, 0, 2}}, {{0, 0, 3}});
  StubModel model(4, 1);
  model.set_score(0, 0, 3, 10.0);  // test triple: best score everywhere
  const Evaluator eval(ds);
  const auto metrics = eval.link_prediction(model, ds.test());
  EXPECT_DOUBLE_EQ(metrics.mrr, 1.0);
  EXPECT_DOUBLE_EQ(metrics.hits1, 1.0);
  EXPECT_DOUBLE_EQ(metrics.mean_rank, 1.0);
  EXPECT_EQ(metrics.evaluated, 2u);  // head side + tail side
}

TEST(Evaluator, KnownRankComputedExactly) {
  // Tail ranking for (0,0,3): give entities 1 and 2 higher scores than the
  // true tail 3 -> raw rank 3.
  const Dataset ds(5, 1, {{4, 0, 0}}, {}, {{0, 0, 3}});
  StubModel model(5, 1);
  model.set_score(0, 0, 3, 5.0);
  model.set_score(0, 0, 1, 7.0);
  model.set_score(0, 0, 2, 6.0);
  const Evaluator eval(ds);
  EvalOptions opts;
  opts.filtered = false;
  const auto metrics = eval.link_prediction(model, ds.test(), opts);
  // Head side: (e,0,3) all score -100 except the true head 0 -> rank 1.
  // Tail side: rank 3. MRR = (1 + 1/3) / 2.
  EXPECT_NEAR(metrics.mrr, (1.0 + 1.0 / 3.0) / 2.0, 1e-12);
  EXPECT_NEAR(metrics.mean_rank, 2.0, 1e-12);
}

TEST(Evaluator, FilteringSkipsKnownTriples) {
  // Entity 1 outranks the true tail, but (0,0,1) is a known train triple,
  // so the filtered rank ignores it.
  const Dataset ds(5, 1, {{0, 0, 1}}, {}, {{0, 0, 3}});
  StubModel model(5, 1);
  model.set_score(0, 0, 3, 5.0);
  model.set_score(0, 0, 1, 7.0);
  const Evaluator eval(ds);

  EvalOptions raw;
  raw.filtered = false;
  EvalOptions filtered;
  filtered.filtered = true;

  const auto raw_metrics = eval.link_prediction(model, ds.test(), raw);
  const auto filtered_metrics =
      eval.link_prediction(model, ds.test(), filtered);
  EXPECT_GT(filtered_metrics.mrr, raw_metrics.mrr);
  EXPECT_NEAR(filtered_metrics.mrr, 1.0, 1e-12);  // both sides rank 1
}

TEST(Evaluator, MaxTriplesSubsamples) {
  TripleList test;
  for (int i = 0; i < 20; ++i) test.push_back({0, 0, 1});
  const Dataset ds(4, 1, {{2, 0, 3}}, {}, std::move(test));
  StubModel model(4, 1);
  const Evaluator eval(ds);
  EvalOptions opts;
  opts.max_triples = 5;
  const auto metrics = eval.link_prediction(model, ds.test(), opts);
  EXPECT_LE(metrics.evaluated, 2u * 5u);
  EXPECT_GT(metrics.evaluated, 0u);
}

TEST(Evaluator, EmptyTestSetYieldsZeroMetrics) {
  const Dataset ds(4, 1, {{0, 0, 1}}, {}, {});
  StubModel model(4, 1);
  const Evaluator eval(ds);
  const auto metrics = eval.link_prediction(model, ds.test());
  EXPECT_EQ(metrics.evaluated, 0u);
  EXPECT_DOUBLE_EQ(metrics.mrr, 0.0);
}

TEST(Evaluator, HitsAtKAreMonotone) {
  SyntheticSpec spec;
  spec.num_entities = 120;
  spec.num_relations = 8;
  spec.num_triples = 2000;
  spec.num_latent_types = 4;
  spec.seed = 31;
  const Dataset ds = generate_synthetic(spec);
  ComplExModel model(ds.num_entities(), ds.num_relations(), 8);
  util::Rng rng(1);
  model.init(rng);
  const Evaluator eval(ds);
  const auto metrics = eval.link_prediction(model, ds.test());
  EXPECT_LE(metrics.hits1, metrics.hits3);
  EXPECT_LE(metrics.hits3, metrics.hits10);
  EXPECT_LE(metrics.hits10, 1.0);
  EXPECT_GT(metrics.mrr, 0.0);
  EXPECT_LE(metrics.mrr, 1.0);
}

TEST(Evaluator, SideBreakdownAveragesToOverallMrr) {
  SyntheticSpec spec;
  spec.num_entities = 100;
  spec.num_relations = 6;
  spec.num_triples = 1500;
  spec.num_latent_types = 4;
  spec.seed = 36;
  const Dataset ds = generate_synthetic(spec);
  ComplExModel model(ds.num_entities(), ds.num_relations(), 8);
  util::Rng rng(4);
  model.init(rng);
  const Evaluator eval(ds);
  const auto metrics = eval.link_prediction(model, ds.test());
  EXPECT_NEAR((metrics.mrr_head_side + metrics.mrr_tail_side) / 2.0,
              metrics.mrr, 1e-12);
  EXPECT_GT(metrics.mrr_head_side, 0.0);
  EXPECT_GT(metrics.mrr_tail_side, 0.0);
}

TEST(Evaluator, SideBreakdownSeparatesAsymmetricDifficulty) {
  // One head fans out to many tails: predicting the unique head (head
  // side is easy for the model below) vs predicting one-of-many tails.
  TripleList train;
  for (EntityId t = 1; t <= 8; ++t) train.push_back({0, 0, t});
  const Dataset ds(10, 1, std::move(train), {}, {{0, 0, 9}});
  StubModel model(10, 1);
  // The model scores every (0, 0, *) highly, everything else low.
  for (EntityId t = 0; t < 10; ++t) model.set_score(0, 0, t, 5.0);
  const Evaluator eval(ds);
  EvalOptions raw;
  raw.filtered = false;
  const auto metrics = eval.link_prediction(model, ds.test(), raw);
  // Head side: only entity 0 scores high -> rank 1. Tail side: all ten
  // candidates tie at 5.0 -> strict-greater ranking gives rank 1 too,
  // but filtered=false keeps the 8 known true tails as competitors.
  EXPECT_GE(metrics.mrr_head_side, metrics.mrr_tail_side);
}

/// Field by field, byte for byte.
::testing::AssertionResult same_bytes(const RankingMetrics& a,
                                      const RankingMetrics& b) {
  std::string differing;
  const auto check = [&](const char* name, const auto& x, const auto& y) {
    if (std::memcmp(&x, &y, sizeof x) != 0) {
      differing += ' ';
      differing += name;
    }
  };
  check("mrr", a.mrr, b.mrr);
  check("mean_rank", a.mean_rank, b.mean_rank);
  check("hits1", a.hits1, b.hits1);
  check("hits3", a.hits3, b.hits3);
  check("hits10", a.hits10, b.hits10);
  check("evaluated", a.evaluated, b.evaluated);
  check("mrr_head_side", a.mrr_head_side, b.mrr_head_side);
  check("mrr_tail_side", a.mrr_tail_side, b.mrr_tail_side);
  if (differing.empty()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "differing:" << differing;
}

const Dataset& pool_dataset() {
  static const Dataset dataset = generate_synthetic([] {
    SyntheticSpec spec;
    spec.num_entities = 150;
    spec.num_relations = 8;
    spec.num_triples = 2400;
    spec.num_latent_types = 4;
    spec.test_fraction = 0.1;
    spec.seed = 41;
    return spec;
  }());
  return dataset;
}

/// Ranks a span with no pool and on a pool of GetParam() workers: one
/// worker, a few, and more workers than some spans have scan tiles.
class EvaluatorPoolP : public ::testing::TestWithParam<std::size_t> {
 protected:
  EvaluatorPoolP()
      : model_(pool_dataset().num_entities(), pool_dataset().num_relations(),
               8) {
    util::Rng rng(9);
    model_.init(rng);
  }

  /// Filtered and raw, the pool must return the serial call's bytes.
  void expect_serial_bytes(std::span<const Triple> triples,
                           std::size_t max_triples, const char* what) {
    const Evaluator eval(pool_dataset());
    for (const bool filtered : {true, false}) {
      EvalOptions options;
      options.filtered = filtered;
      options.max_triples = max_triples;
      const RankingMetrics serial =
          eval.link_prediction(model_, triples, options);
      EXPECT_TRUE(same_bytes(
          serial, eval.link_prediction(model_, triples, options, &pool_)))
          << what << (filtered ? ", filtered" : ", raw") << ", "
          << pool_.size() << " workers";
    }
  }

  ComplExModel model_;
  util::ThreadPool pool_{GetParam()};
};

INSTANTIATE_TEST_SUITE_P(Workers, EvaluatorPoolP,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{3}, std::size_t{8}),
                         ::testing::PrintToStringParamName());

TEST_P(EvaluatorPoolP, FullSplitMatchesSerialBytes) {
  ASSERT_GT(pool_dataset().test().size(), 100u);
  expect_serial_bytes(pool_dataset().test(), 0, "full test split");
}

TEST_P(EvaluatorPoolP, SubsampleMatchesSerialBytes) {
  expect_serial_bytes(pool_dataset().test(), 37, "max_triples subsample");
}

TEST_P(EvaluatorPoolP, EdgeSpansMatchSerialBytes) {
  const auto test = pool_dataset().test();
  expect_serial_bytes({}, 0, "empty span");
  expect_serial_bytes(test.first(13), 0, "odd count, partial last tile");
  expect_serial_bytes(test.first(3), 0, "fewer triples than workers");
  const Evaluator eval(pool_dataset());
  const RankingMetrics empty = eval.link_prediction(model_, {}, {}, &pool_);
  EXPECT_EQ(empty.evaluated, 0u);
  EXPECT_EQ(empty.mrr, 0.0);
}

TEST(Evaluator, PerfectClassifierScoresNearHundred) {
  // Stub: known triples score +10, everything else (negatives) -100, so
  // the fitted thresholds separate them perfectly.
  SyntheticSpec spec;
  spec.num_entities = 100;
  spec.num_relations = 6;
  spec.num_triples = 1500;
  spec.num_latent_types = 4;
  spec.seed = 33;
  const Dataset ds = generate_synthetic(spec);
  StubModel model(ds.num_entities(), ds.num_relations());
  for (const std::span<const Triple> split :
       {ds.train(), ds.valid(), ds.test()}) {
    for (const Triple& t : split) {
      model.set_score(t.head, t.relation, t.tail, 10.0);
    }
  }
  const Evaluator eval(ds);
  EXPECT_GT(eval.triple_classification_accuracy(model), 99.0);
  EXPECT_GT(eval.validation_accuracy(model), 99.0);
}

TEST(Evaluator, RandomModelClassifiesNearChance) {
  SyntheticSpec spec;
  spec.num_entities = 100;
  spec.num_relations = 6;
  spec.num_triples = 1500;
  spec.num_latent_types = 4;
  spec.seed = 34;
  const Dataset ds = generate_synthetic(spec);
  ComplExModel model(ds.num_entities(), ds.num_relations(), 8);
  util::Rng rng(2);
  model.init(rng);
  const Evaluator eval(ds);
  const double tca = eval.triple_classification_accuracy(model);
  // Untrained scores carry little signal; the per-relation threshold fit
  // gives a modest edge over 50% but nothing like a trained model.
  EXPECT_GT(tca, 40.0);
  EXPECT_LT(tca, 75.0);
}

TEST(Evaluator, ClassificationScoresEachSplitInOneBlock) {
  // Thresholds fit on valid, accuracy on test: one block per split, each
  // positive in split order followed by its one corruption.
  SyntheticSpec spec;
  spec.num_entities = 80;
  spec.num_relations = 5;
  spec.num_triples = 1000;
  spec.num_latent_types = 4;
  spec.seed = 36;
  const Dataset ds = generate_synthetic(spec);
  RecordingModel model(ds.num_entities(), ds.num_relations());
  const Evaluator eval(ds);
  constexpr std::size_t kCap = 16;
  ASSERT_GT(ds.valid().size(), kCap);
  ASSERT_GT(ds.test().size(), kCap);
  eval.triple_classification_accuracy(model, 7, kCap);
  ASSERT_EQ(model.blocks().size(), 2u);
  const std::span<const Triple> splits[] = {ds.valid().first(kCap),
                                            ds.test().first(kCap)};
  for (std::size_t s = 0; s < 2; ++s) {
    const TripleList& block = model.blocks()[s];
    ASSERT_EQ(block.size(), 2 * kCap) << "split " << s;
    for (std::size_t i = 0; i < kCap; ++i) {
      const Triple& pos = block[2 * i];
      const Triple& neg = block[2 * i + 1];
      EXPECT_EQ(pos, splits[s][i]) << "split " << s << " pair " << i;
      // A corruption keeps the relation and exactly one end.
      EXPECT_EQ(neg.relation, pos.relation) << "split " << s << " pair " << i;
      EXPECT_NE(neg.head == pos.head, neg.tail == pos.tail)
          << "split " << s << " pair " << i;
      EXPECT_FALSE(ds.contains(neg)) << "split " << s << " pair " << i;
    }
  }
}

TEST(Evaluator, ThresholdsFollowEachPairsRelation) {
  SyntheticSpec spec;
  spec.num_entities = 100;
  spec.num_relations = 6;
  spec.num_triples = 1500;
  spec.num_latent_types = 4;
  spec.seed = 33;
  const Dataset ds = generate_synthetic(spec);
  // Every test relation has a threshold of its own, fitted on valid.
  std::vector<bool> in_valid(ds.num_relations(), false);
  for (const Triple& t : ds.valid()) in_valid[t.relation] = true;
  for (const Triple& t : ds.test()) ASSERT_TRUE(in_valid[t.relation]);
  const RelationShiftedModel model(ds);
  const Evaluator eval(ds);
  // Per-relation thresholds classify every pair; one global threshold
  // could not.
  EXPECT_EQ(eval.triple_classification_accuracy(model), 100.0);
  EXPECT_EQ(eval.validation_accuracy(model), 100.0);
}

TEST(Evaluator, DeterministicGivenSeed) {
  SyntheticSpec spec;
  spec.num_entities = 80;
  spec.num_relations = 5;
  spec.num_triples = 1000;
  spec.num_latent_types = 4;
  spec.seed = 35;
  const Dataset ds = generate_synthetic(spec);
  ComplExModel model(ds.num_entities(), ds.num_relations(), 4);
  util::Rng rng(3);
  model.init(rng);
  const Evaluator eval(ds);
  EXPECT_DOUBLE_EQ(eval.triple_classification_accuracy(model, 5),
                   eval.triple_classification_accuracy(model, 5));
}

}  // namespace
}  // namespace dynkge::kge
