#include "util/span_math.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace dynkge::util {
namespace {

TEST(SpanMath, Nrm2) {
  const std::vector<float> x{3.0f, 4.0f};
  EXPECT_DOUBLE_EQ(nrm2(x), 5.0);
}

TEST(SpanMath, Nrm2Empty) {
  const std::vector<float> x;
  EXPECT_DOUBLE_EQ(nrm2(x), 0.0);
}

TEST(SpanMath, Asum) {
  const std::vector<float> x{-1.0f, 2.0f, -3.0f};
  EXPECT_DOUBLE_EQ(asum(x), 6.0);
}

TEST(SpanMath, AmaxAndAmean) {
  const std::vector<float> x{-7.0f, 2.0f, 5.0f};
  EXPECT_FLOAT_EQ(amax(x), 7.0f);
  EXPECT_NEAR(amean(x), 14.0f / 3.0f, 1e-6);
}

TEST(SpanMath, AmaxEmpty) {
  const std::vector<float> x;
  EXPECT_FLOAT_EQ(amax(x), 0.0f);
  EXPECT_FLOAT_EQ(amean(x), 0.0f);
}

TEST(SpanMath, SoftplusAccuracy) {
  EXPECT_NEAR(softplus(0.0), std::log(2.0), 1e-12);
  EXPECT_NEAR(softplus(1.0), std::log1p(std::exp(1.0)), 1e-12);
  EXPECT_NEAR(softplus(-1.0), std::log1p(std::exp(-1.0)), 1e-12);
}

TEST(SpanMath, SoftplusExtremesDoNotOverflow) {
  EXPECT_DOUBLE_EQ(softplus(1000.0), 1000.0);
  EXPECT_NEAR(softplus(-1000.0), 0.0, 1e-12);
  EXPECT_TRUE(std::isfinite(softplus(700.0)));
  EXPECT_TRUE(std::isfinite(softplus(-700.0)));
}

TEST(SpanMath, SigmoidBasics) {
  EXPECT_DOUBLE_EQ(sigmoid(0.0), 0.5);
  EXPECT_NEAR(sigmoid(100.0), 1.0, 1e-12);
  EXPECT_NEAR(sigmoid(-100.0), 0.0, 1e-12);
}

TEST(SpanMath, SigmoidSymmetry) {
  for (const double z : {0.1, 0.5, 2.0, 10.0}) {
    EXPECT_NEAR(sigmoid(z) + sigmoid(-z), 1.0, 1e-12);
  }
}

TEST(SpanMath, SigmoidIsSoftplusDerivative) {
  // d/dz softplus(z) == sigmoid(z); check by central differences.
  for (const double z : {-3.0, -0.5, 0.0, 0.5, 3.0}) {
    const double h = 1e-6;
    const double numeric = (softplus(z + h) - softplus(z - h)) / (2 * h);
    EXPECT_NEAR(numeric, sigmoid(z), 1e-6);
  }
}

}  // namespace
}  // namespace dynkge::util
