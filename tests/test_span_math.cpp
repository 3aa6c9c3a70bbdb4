#include "util/span_math.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace dynkge::util
