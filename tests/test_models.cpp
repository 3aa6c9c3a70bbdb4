// Model correctness: analytic gradients are checked against central finite
// differences for every model — the single most important test in the kge
// substrate, since every strategy downstream consumes these gradients.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "kge/complex_model.hpp"
#include "kge/distmult_model.hpp"
#include "kge/model_factory.hpp"
#include "kge/rotate_model.hpp"
#include "kge/transe_model.hpp"

namespace dynkge::kge {
namespace {

constexpr std::int32_t kEntities = 7;
constexpr std::int32_t kRelations = 4;
constexpr std::int32_t kRank = 6;

std::unique_ptr<KgeModel> build(const std::string& name) {
  auto model = make_model(name, kEntities, kRelations, kRank);
  util::Rng rng(2024);
  model->init(rng);
  return model;
}

class ModelP : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(AllModels, ModelP,
                         ::testing::Values("complex", "distmult", "transe",
                                           "rotate"));

TEST_P(ModelP, InitIsDeterministic) {
  auto a = build(GetParam());
  auto b = build(GetParam());
  EXPECT_NEAR(a->score(0, 0, 1), b->score(0, 0, 1), 0.0);
  EXPECT_NEAR(a->score(3, 2, 5), b->score(3, 2, 5), 0.0);
}

TEST_P(ModelP, GradientMatchesFiniteDifferences) {
  auto model = build(GetParam());
  const EntityId h = 1;
  const RelationId r = 2;
  const EntityId t = 4;
  const float coeff = 1.7f;

  ModelGrads grads = model->make_grads();
  model->accumulate_gradients(h, r, t, coeff, grads);

  const double eps = 1e-3;
  const auto check_param = [&](EmbeddingMatrix& matrix, std::int32_t row,
                               const SparseGrad& grad_store) {
    const auto analytic = grad_store.row(row);
    for (std::int32_t i = 0; i < matrix.width(); ++i) {
      float& p = matrix.row(row)[i];
      const float saved = p;
      p = saved + static_cast<float>(eps);
      const double up = model->score(h, r, t);
      p = saved - static_cast<float>(eps);
      const double down = model->score(h, r, t);
      p = saved;
      const double numeric = coeff * (up - down) / (2.0 * eps);
      EXPECT_NEAR(analytic[i], numeric, 5e-2)
          << "row " << row << " component " << i;
    }
  };

  check_param(model->entities(), h, grads.entity);
  check_param(model->entities(), t, grads.entity);
  check_param(model->relations(), r, grads.relation);
}

TEST_P(ModelP, GradientAccumulatesAcrossTriples) {
  auto model = build(GetParam());
  ModelGrads once = model->make_grads();
  model->accumulate_gradients(1, 0, 2, 1.0f, once);
  ModelGrads twice = model->make_grads();
  model->accumulate_gradients(1, 0, 2, 0.5f, twice);
  model->accumulate_gradients(1, 0, 2, 0.5f, twice);
  const auto a = once.entity.row(1);
  const auto b = twice.entity.row(1);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-5);
}

TEST_P(ModelP, SelfLoopTripleAccumulatesBothSides) {
  // h == t: gradient row must receive both the head and tail contributions.
  auto model = build(GetParam());
  ModelGrads grads = model->make_grads();
  model->accumulate_gradients(3, 1, 3, 1.0f, grads);
  EXPECT_EQ(grads.entity.num_rows(), 1u);

  // Finite-difference the self-loop score with respect to row 3.
  const double eps = 1e-3;
  const auto analytic = grads.entity.row(3);
  for (std::int32_t i = 0; i < model->entities().width(); ++i) {
    float& p = model->entities().row(3)[i];
    const float saved = p;
    p = saved + static_cast<float>(eps);
    const double up = model->score(3, 1, 3);
    p = saved - static_cast<float>(eps);
    const double down = model->score(3, 1, 3);
    p = saved;
    EXPECT_NEAR(analytic[i], (up - down) / (2.0 * eps), 5e-2);
  }
}

TEST_P(ModelP, ScoreAllTailsMatchesScore) {
  auto model = build(GetParam());
  std::vector<double> scores(kEntities);
  model->score_all_tails(2, 1, scores);
  for (EntityId e = 0; e < kEntities; ++e) {
    // The batched path composes h*r in float; allow float rounding.
    EXPECT_NEAR(scores[e], model->score(2, 1, e), 1e-4);
  }
}

TEST_P(ModelP, ScoreAllHeadsMatchesScore) {
  auto model = build(GetParam());
  std::vector<double> scores(kEntities);
  model->score_all_heads(3, 5, scores);
  for (EntityId e = 0; e < kEntities; ++e) {
    EXPECT_NEAR(scores[e], model->score(e, 3, 5), 1e-4);
  }
}

TEST(ComplExModel, MatchesPaperEquationOne) {
  // Verify the score against an explicit evaluation of paper eq. (1):
  // phi = <Re r, Re h, Re t> + <Re r, Im h, Im t>
  //     + <Im r, Re h, Im t> - <Im r, Im h, Re t>.
  ComplExModel model(3, 2, 4);
  util::Rng rng(5);
  model.init(rng);
  const auto eh = model.entities().row(0);
  const auto er = model.relations().row(1);
  const auto et = model.entities().row(2);
  double expected = 0.0;
  for (int i = 0; i < 4; ++i) {
    const double h_re = eh[i], h_im = eh[4 + i];
    const double r_re = er[i], r_im = er[4 + i];
    const double t_re = et[i], t_im = et[4 + i];
    expected += r_re * h_re * t_re + r_re * h_im * t_im + r_im * h_re * t_im -
                r_im * h_im * t_re;
  }
  EXPECT_NEAR(model.score(0, 1, 2), expected, 1e-9);
}

TEST(ComplExModel, WidthIsTwiceRank) {
  ComplExModel model(3, 2, 5);
  EXPECT_EQ(model.entities().width(), 10);
  EXPECT_EQ(model.relations().width(), 10);
  EXPECT_EQ(model.spec().rank, 5);
}

TEST(ComplExModel, AsymmetricRelationsScoreDifferently) {
  // ComplEx's raison d'etre: phi(h,r,t) != phi(t,r,h) in general.
  ComplExModel model(4, 2, 8);
  util::Rng rng(11);
  model.init(rng);
  EXPECT_NE(model.score(0, 1, 2), model.score(2, 1, 0));
}

TEST(DistMultModel, IsSymmetric) {
  DistMultModel model(4, 2, 8);
  util::Rng rng(11);
  model.init(rng);
  EXPECT_NEAR(model.score(0, 1, 2), model.score(2, 1, 0), 1e-9);
}

TEST(TransEModel, PerfectTranslationScoresGamma) {
  TransEModel model(3, 1, 4, /*gamma=*/10.0f);
  util::Rng rng(3);
  model.init(rng);
  // Force E_t = E_h + R_r so the distance is zero.
  for (int i = 0; i < 4; ++i) {
    model.entities().row(2)[i] =
        model.entities().row(0)[i] + model.relations().row(0)[i];
  }
  EXPECT_NEAR(model.score(0, 0, 2), 10.0, 1e-5);
}

TEST(TransEModel, FartherTranslationScoresLower) {
  TransEModel model(3, 1, 4);
  util::Rng rng(3);
  model.init(rng);
  for (int i = 0; i < 4; ++i) {
    model.entities().row(2)[i] =
        model.entities().row(0)[i] + model.relations().row(0)[i];
    model.entities().row(1)[i] = model.entities().row(2)[i] + 5.0f;
  }
  EXPECT_GT(model.score(0, 0, 2), model.score(0, 0, 1));
}

TEST(RotatEModel, ZeroRotationIsTranslationFreeDistance) {
  // With all phases zero, phi = gamma - sum_k |h_k - t_k| (complex L1).
  RotatEModel model(3, 1, 4, /*gamma=*/10.0f);
  util::Rng rng(3);
  model.init(rng);
  for (auto& theta : model.relations().row(0)) theta = 0.0f;
  // t == h -> distance ~ 0 -> score ~ gamma.
  for (int i = 0; i < 8; ++i) {
    model.entities().row(2)[i] = model.entities().row(0)[i];
  }
  EXPECT_NEAR(model.score(0, 0, 2), 10.0, 1e-4);
}

TEST(RotatEModel, RotationMatchesComplexArithmetic) {
  RotatEModel model(3, 1, 1, /*gamma=*/0.0f);
  // h = 1 + 0i, theta = pi/2 -> rotated h = i; t = 0 + 1i -> distance 0.
  model.entities().row(0)[0] = 1.0f;
  model.entities().row(0)[1] = 0.0f;
  model.relations().row(0)[0] = 1.5707963f;
  model.entities().row(1)[0] = 0.0f;
  model.entities().row(1)[1] = 1.0f;
  EXPECT_NEAR(model.score(0, 0, 1), 0.0, 1e-5);
}

TEST(RotatEModel, RelationWidthIsRankNotTwiceRank) {
  RotatEModel model(3, 2, 6);
  EXPECT_EQ(model.entities().width(), 12);
  EXPECT_EQ(model.relations().width(), 6);
}

TEST(RotatEModel, CanRepresentAsymmetry) {
  RotatEModel model(4, 2, 8);
  util::Rng rng(11);
  model.init(rng);
  EXPECT_NE(model.score(0, 1, 2), model.score(2, 1, 0));
}

TEST(ModelFactory, RejectsUnknownName) {
  EXPECT_THROW(make_model("rotatE", 3, 2, 4), std::invalid_argument);
}

TEST(ModelFactory, ProducesNamedModels) {
  EXPECT_EQ(make_model("complex", 3, 2, 4)->name(), "ComplEx");
  EXPECT_EQ(make_model("distmult", 3, 2, 4)->name(), "DistMult");
  EXPECT_EQ(make_model("transe", 3, 2, 4)->name(), "TransE");
  EXPECT_EQ(make_model("rotate", 3, 2, 4)->name(), "RotatE");
}

}  // namespace
}  // namespace dynkge::kge
