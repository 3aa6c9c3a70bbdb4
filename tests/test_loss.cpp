#include "kge/loss.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

namespace dynkge::kge {
namespace {

// ---- the byte reference ------------------------------------------------

/// Numerically stable log(1 + exp(z)) (softplus), as the loss computed it
/// through two separate functions.
double softplus(double z) {
  if (z > 30.0) return z;
  if (z < -30.0) return std::exp(z);
  return std::log1p(std::exp(z));
}

/// Logistic sigmoid 1 / (1 + exp(-z)) without overflow.
double sigmoid(double z) {
  if (z >= 0.0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

/// logistic_loss composed from the reference functions.
LossGrad reference_loss(double score, int label) {
  const double y = static_cast<double>(label);
  const double z = -y * score;
  return {softplus(z), -y * sigmoid(z)};
}

bool same_bytes(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(LossReference, SoftplusAccuracy) {
  EXPECT_NEAR(softplus(0.0), std::log(2.0), 1e-12);
  EXPECT_NEAR(softplus(1.0), std::log1p(std::exp(1.0)), 1e-12);
  EXPECT_NEAR(softplus(-1.0), std::log1p(std::exp(-1.0)), 1e-12);
}

TEST(LossReference, SoftplusExtremesDoNotOverflow) {
  EXPECT_DOUBLE_EQ(softplus(1000.0), 1000.0);
  EXPECT_NEAR(softplus(-1000.0), 0.0, 1e-12);
  EXPECT_TRUE(std::isfinite(softplus(700.0)));
  EXPECT_TRUE(std::isfinite(softplus(-700.0)));
}

TEST(LossReference, SigmoidBasics) {
  EXPECT_DOUBLE_EQ(sigmoid(0.0), 0.5);
  EXPECT_NEAR(sigmoid(100.0), 1.0, 1e-12);
  EXPECT_NEAR(sigmoid(-100.0), 0.0, 1e-12);
}

TEST(LossReference, SigmoidSymmetry) {
  for (const double z : {0.1, 0.5, 2.0, 10.0}) {
    EXPECT_NEAR(sigmoid(z) + sigmoid(-z), 1.0, 1e-12);
  }
}

TEST(LossReference, SigmoidIsSoftplusDerivative) {
  // d/dz softplus(z) == sigmoid(z); check by central differences.
  for (const double z : {-3.0, -0.5, 0.0, 0.5, 3.0}) {
    const double h = 1e-6;
    const double numeric = (softplus(z + h) - softplus(z - h)) / (2 * h);
    EXPECT_NEAR(numeric, sigmoid(z), 1e-6);
  }
}

TEST(LogisticLoss, MatchesReferenceBytes) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kMin = std::numeric_limits<double>::denorm_min();
  std::vector<double> scores{
      0.0,  -0.0, 30.0, -30.0, 1e300, -1e300, kInf, -kInf, kNaN, -kNaN,
      kMin, -kMin, 1e-310, -1e-310, 0.5, -2.0, 16.0, -700.0, 710.0, 745.5};
  // Each side of both branch points: z = -30 (exp alone below it) and z = 0
  // (which sigmoid form, and where the exp is shared).
  for (const double edge : {30.0, -30.0, 0.0}) {
    double up = edge, down = edge;
    for (int step = 0; step < 3; ++step) {
      up = std::nextafter(up, kInf);
      down = std::nextafter(down, -kInf);
      scores.push_back(up);
      scores.push_back(down);
    }
  }
  for (const int label : {+1, -1}) {
    for (const double score : scores) {
      const LossGrad got = logistic_loss(score, label);
      const LossGrad expected = reference_loss(score, label);
      EXPECT_TRUE(same_bytes(got.loss, expected.loss))
          << "score " << score << " label " << label << ": loss "
          << got.loss << " vs " << expected.loss;
      EXPECT_TRUE(same_bytes(got.dscore, expected.dscore))
          << "score " << score << " label " << label << ": dscore "
          << got.dscore << " vs " << expected.dscore;
    }
  }
}

// ---- the loss's properties ---------------------------------------------

TEST(LogisticLoss, ZeroScoreIsLog2) {
  EXPECT_NEAR(logistic_loss(0.0, +1).loss, std::log(2.0), 1e-12);
  EXPECT_NEAR(logistic_loss(0.0, -1).loss, std::log(2.0), 1e-12);
}

TEST(LogisticLoss, ConfidentCorrectIsCheap) {
  EXPECT_LT(logistic_loss(10.0, +1).loss, 1e-4);
  EXPECT_LT(logistic_loss(-10.0, -1).loss, 1e-4);
}

TEST(LogisticLoss, ConfidentWrongIsExpensive) {
  EXPECT_GT(logistic_loss(-10.0, +1).loss, 9.0);
  EXPECT_GT(logistic_loss(10.0, -1).loss, 9.0);
}

TEST(LogisticLoss, GradientSign) {
  // Positive label: loss decreases as score increases -> dscore < 0.
  EXPECT_LT(logistic_loss(0.0, +1).dscore, 0.0);
  // Negative label: loss increases as score increases -> dscore > 0.
  EXPECT_GT(logistic_loss(0.0, -1).dscore, 0.0);
}

TEST(LogisticLoss, GradientMatchesFiniteDifference) {
  for (const int label : {+1, -1}) {
    for (const double score : {-3.0, -0.7, 0.0, 0.7, 3.0}) {
      const double h = 1e-6;
      const double numeric =
          (logistic_loss(score + h, label).loss -
           logistic_loss(score - h, label).loss) /
          (2.0 * h);
      EXPECT_NEAR(logistic_loss(score, label).dscore, numeric, 1e-6);
    }
  }
}

TEST(LogisticLoss, GradientBounded) {
  // |dscore| = sigmoid(-y*phi) is always in (0, 1).
  for (const double score : {-100.0, -1.0, 0.0, 1.0, 100.0}) {
    for (const int label : {+1, -1}) {
      const double g = logistic_loss(score, label).dscore;
      EXPECT_LE(std::fabs(g), 1.0);
    }
  }
}

TEST(LogisticLoss, ExtremeScoresStayFinite) {
  EXPECT_TRUE(std::isfinite(logistic_loss(1e8, -1).loss));
  EXPECT_TRUE(std::isfinite(logistic_loss(-1e8, +1).loss));
  EXPECT_TRUE(std::isfinite(logistic_loss(1e8, -1).dscore));
}

}  // namespace
}  // namespace dynkge::kge
