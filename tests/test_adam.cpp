// RowAdam: the optimizer's behaviour (convergence, weight decay, lazy rows,
// large gradients) through the blocked update, and its bytes against the
// per-row reference (adam_reference.hpp) on inputs that push the AVX-512F
// body's estimate lane to its exact fallback: steps within the rounding
// test's margin of a float rounding midpoint, zero, subnormal and
// near-FLT_MAX second moments, signed zeros, NaN and infinite gradients,
// the steps where 1 - beta1^t reaches 1.0, step scalars outside the lane's
// domain, row widths around the lane's eight elements, and seeded
// trajectories over gradient scale, weight decay and learning rate.
// tests/CMakeLists.txt also builds this file as test_adam_avx2 and
// test_adam_baseline, so every kernel body is compared.
#include "kge/adam.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "adam_reference.hpp"
#include "util/rng.hpp"

namespace dynkge::kge {
namespace {

using testing_util::ReferenceAdam;

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

/// One row's gradient.
SparseGrad one_row(std::int32_t row, std::span<const float> grad) {
  SparseGrad grads(static_cast<std::int32_t>(grad.size()));
  std::ranges::copy(grad, grads.accumulate(row).begin());
  return grads;
}

void update_one(RowAdam& adam, std::int32_t row, std::span<const float> grad,
                EmbeddingMatrix& params) {
  adam.update_rows(one_row(row, grad), params);
}

// ---- behaviour ----------------------------------------------------------

TEST(RowAdam, RequiresBeginStep) {
  RowAdam adam(2, 3);
  EmbeddingMatrix params(2, 3);
  const std::vector<float> grad(3, 1.0f);
  EXPECT_THROW(update_one(adam, 0, grad, params), std::logic_error);
}

TEST(RowAdam, RejectsWidthMismatch) {
  RowAdam adam(2, 3);
  EmbeddingMatrix params(2, 3);
  adam.begin_step();
  const std::vector<float> grad(4, 1.0f);
  EXPECT_THROW(update_one(adam, 0, grad, params), std::invalid_argument);
}

TEST(RowAdam, FirstStepMovesByLearningRate) {
  // With bias correction, the very first Adam step is ~lr * sign(grad).
  AdamConfig config;
  config.learning_rate = 0.1;
  RowAdam adam(1, 2, config);
  EmbeddingMatrix params(1, 2);
  adam.begin_step();
  const std::vector<float> grad{1.0f, -2.0f};
  update_one(adam, 0, grad, params);
  EXPECT_NEAR(params.row(0)[0], -0.1f, 1e-5);
  EXPECT_NEAR(params.row(0)[1], 0.1f, 1e-5);
}

TEST(RowAdam, ConvergesOnQuadratic) {
  // Minimize f(x) = ||x - target||^2 via its gradient 2(x - target). Width
  // 12 takes a lane of eight and a tail of four on the AVX-512F body.
  AdamConfig config;
  config.learning_rate = 0.05;
  RowAdam adam(1, 12, config);
  EmbeddingMatrix params(1, 12);
  std::vector<float> target(12);
  for (int i = 0; i < 12; ++i) target[i] = 0.5f * static_cast<float>(i - 5);
  for (int step = 0; step < 2000; ++step) {
    adam.begin_step();
    std::vector<float> grad(12);
    for (int i = 0; i < 12; ++i) {
      grad[i] = 2.0f * (params.row(0)[i] - target[i]);
    }
    update_one(adam, 0, grad, params);
  }
  for (int i = 0; i < 12; ++i) {
    EXPECT_NEAR(params.row(0)[i], target[i], 1e-2) << "element " << i;
  }
}

TEST(RowAdam, WeightDecayShrinksParameters) {
  AdamConfig config;
  config.learning_rate = 0.01;
  config.weight_decay = 0.1;
  RowAdam adam(1, 8, config);
  EmbeddingMatrix params(1, 8);
  for (int i = 0; i < 8; ++i) params.row(0)[i] = i % 2 == 0 ? 5.0f : -5.0f;
  const std::vector<float> zero_grad(8, 0.0f);
  for (int step = 0; step < 2000; ++step) {
    adam.begin_step();
    update_one(adam, 0, zero_grad, params);
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_LT(std::fabs(params.row(0)[i]), 1.0f) << "element " << i;
  }
}

TEST(RowAdam, LazyRowsKeepIndependentMoments) {
  // Updating row 0 must not disturb row 1's moments or parameters.
  RowAdam adam(2, 8);
  EmbeddingMatrix params(2, 8);
  params.row(1)[0] = 3.0f;
  const std::vector<float> grad(8, 1.0f);
  adam.begin_step();
  update_one(adam, 0, grad, params);
  EXPECT_FLOAT_EQ(params.row(1)[0], 3.0f);
  for (const float x : adam.moment1().row(1)) EXPECT_EQ(x, 0.0f);
  for (const float x : adam.moment2().row(1)) EXPECT_EQ(x, 0.0f);
}

TEST(RowAdam, DeterministicAcrossInstances) {
  // Two optimizers fed identical steps produce identical parameters — the
  // replica-consistency primitive for distributed training.
  RowAdam a(3, 8), b(3, 8);
  EmbeddingMatrix pa(3, 8), pb(3, 8);
  util::Rng rng(77);
  for (int step = 0; step < 50; ++step) {
    a.begin_step();
    b.begin_step();
    std::vector<float> grad(8);
    for (auto& g : grad) g = static_cast<float>(rng.next_double(-1, 1));
    const auto row = static_cast<std::int32_t>(rng.next_below(3));
    update_one(a, row, grad, pa);
    update_one(b, row, grad, pb);
  }
  for (std::size_t i = 0; i < pa.flat().size(); ++i) {
    EXPECT_EQ(pa.flat()[i], pb.flat()[i]);
  }
}

TEST(RowAdam, LearningRateIsMutable) {
  RowAdam adam(1, 1);
  EXPECT_DOUBLE_EQ(adam.learning_rate(), 0.001);
  adam.set_learning_rate(0.004);
  EXPECT_DOUBLE_EQ(adam.learning_rate(), 0.004);
}

TEST(RowAdam, StepCounterAdvances) {
  RowAdam adam(1, 1);
  EXPECT_EQ(adam.step(), 0);
  adam.begin_step();
  adam.begin_step();
  EXPECT_EQ(adam.step(), 2);
}

TEST(RowAdam, SecondMomentDampensLargeGradients) {
  // A giant gradient must still move parameters by roughly lr (Adam's
  // normalization), not by the raw gradient magnitude.
  AdamConfig config;
  config.learning_rate = 0.01;
  RowAdam adam(1, 8, config);
  EmbeddingMatrix params(1, 8);
  adam.begin_step();
  const std::vector<float> grad(8, 1e6f);
  update_one(adam, 0, grad, params);
  for (const float x : params.row(0)) EXPECT_NEAR(x, -0.01f, 1e-4);
}

// ---- bytes against the per-row reference -------------------------------

/// Empty when a and b hold the same bytes, else the first element that
/// differs, with both values and their bits.
std::string first_difference(std::span<const float> a,
                             std::span<const float> b) {
  if (a.size() != b.size()) return "sizes differ";
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) {
      char text[160];
      std::snprintf(text, sizeof(text),
                    "element %zu: blocked %.9g (0x%08x), reference %.9g "
                    "(0x%08x)",
                    i, static_cast<double>(a[i]),
                    std::bit_cast<std::uint32_t>(a[i]),
                    static_cast<double>(b[i]),
                    std::bit_cast<std::uint32_t>(b[i]));
      return text;
    }
  }
  return {};
}

/// A RowAdam and the reference on copies of one table, fed the same
/// steps.
struct AdamPair {
  AdamPair(std::int32_t rows, std::int32_t width, AdamConfig config)
      : blocked(rows, width, config),
        reference(rows, width, config),
        params(rows, width),
        expected(rows, width) {}

  void restore(std::int64_t step, const EmbeddingMatrix& m,
               const EmbeddingMatrix& v) {
    blocked.restore(step, m, v);
    reference.restore(step, m, v);
  }

  void set_params(const EmbeddingMatrix& p) {
    params = p;
    expected = p;
  }

  void set_learning_rate(double lr) {
    blocked.set_learning_rate(lr);
    reference.set_learning_rate(lr);
  }

  /// One step on every row of `grads`: the blocked update_rows, and the
  /// reference row by row in ascending id order. Succeeds when the
  /// parameters and both moments hold the same bytes.
  testing::AssertionResult step(const SparseGrad& grads) {
    blocked.begin_step();
    reference.begin_step();
    blocked.update_rows(grads, params);
    for (const SparseGrad::SlotRef& slot : grads.sorted_slots()) {
      reference.update_row(slot.id, grads.row_at(slot.offset), expected);
    }
    const std::pair<const char*, std::string> checks[] = {
        {"parameters", first_difference(params.flat(), expected.flat())},
        {"first moment", first_difference(blocked.moment1().flat(),
                                          reference.moment1().flat())},
        {"second moment", first_difference(blocked.moment2().flat(),
                                           reference.moment2().flat())},
    };
    for (const auto& [what, difference] : checks) {
      if (!difference.empty()) {
        return testing::AssertionFailure()
               << what << " differ at step " << blocked.step() << ": "
               << difference;
      }
    }
    return testing::AssertionSuccess();
  }

  RowAdam blocked;
  ReferenceAdam reference;
  EmbeddingMatrix params;
  EmbeddingMatrix expected;
};

/// A one-row table holding `values`.
EmbeddingMatrix row_of(const std::vector<float>& values) {
  EmbeddingMatrix matrix(1, static_cast<std::int32_t>(values.size()));
  std::ranges::copy(values, matrix.row(0).begin());
  return matrix;
}

TEST(RowAdamBytes, StepsWithinTheRoundingMarginOfAMidpoint) {
  // Learning rates that put r at a float rounding midpoint times (1 + k
  // 2^-44), k = -48..48: for |k| <= 16, r lies within the rounding test's
  // 2^-40 of the midpoint, where the estimate cannot decide the float and
  // the element must take the exact step; beyond, r rounds one way or the
  // other. With a zero gradient and no weight decay the updated moments
  // are b1 m0 and b2 v0, so r = lr * unit for unit below.
  AdamConfig config;
  const std::int64_t first = 9;  // the step is 10
  const float m0 = 0.3f;
  const float v0 = 0.02f;
  std::vector<float> m_values(16), v_values(16, v0);
  for (std::size_t i = 0; i < m_values.size(); ++i) {
    m_values[i] = i % 3 == 0 ? -m0 : m0;
  }
  const float m = static_cast<float>(config.beta1) * m0;
  const float v = static_cast<float>(config.beta2) * v0;
  const double t = static_cast<double>(first + 1);
  const double unit =
      (m / (1.0 - std::pow(config.beta1, t))) /
      (std::sqrt(v / (1.0 - std::pow(config.beta2, t))) + config.epsilon);
  const auto below = static_cast<float>(0.01 * unit);
  const double midpoint =
      (static_cast<double>(below) +
       static_cast<double>(std::nextafter(below, kInf))) /
      2.0;
  const std::vector<float> zero(16, 0.0f);
  std::set<float> moved;
  for (int k = -48; k <= 48; ++k) {
    AdamPair pair(1, 16, config);
    pair.restore(first, row_of(m_values), row_of(v_values));
    pair.set_learning_rate(midpoint / unit *
                           (1.0 + static_cast<double>(k) * 0x1p-44));
    EXPECT_TRUE(pair.step(one_row(0, zero))) << "k = " << k;
    moved.insert(pair.expected.row(0)[1]);
  }
  // The steps straddle the midpoint: both neighbouring floats occur.
  EXPECT_EQ(moved.size(), 2u);
}

TEST(RowAdamBytes, ZeroSecondMoment) {
  // No weight decay and a zero gradient leave v = 0: v_hat is 0, and r =
  // lr m_hat / epsilon.
  AdamConfig config;
  config.learning_rate = 0.01;
  AdamPair pair(1, 16, config);
  std::vector<float> m_values(16);
  for (std::size_t i = 0; i < m_values.size(); ++i) {
    m_values[i] = i % 4 == 0 ? 0.0f : 1e-3f * static_cast<float>(i) - 6e-3f;
  }
  pair.restore(3, row_of(m_values), EmbeddingMatrix(1, 16));
  const std::vector<float> zero(16, 0.0f);
  for (int step = 0; step < 4; ++step) {
    EXPECT_TRUE(pair.step(one_row(0, zero)));
  }
}

TEST(RowAdamBytes, SubnormalSecondMoment) {
  // Subnormal second moments (and gradients whose squares underflow), in
  // lanes next to ordinary ones.
  AdamConfig config;
  config.learning_rate = 0.1;
  const float tiny = std::numeric_limits<float>::denorm_min();
  const std::vector<float> v_values{tiny,     2 * tiny, 1e-40f, 1e-39f,
                                    1e-38f,   0.5f,     tiny,   3e-41f,
                                    1.17e-38f, 1e-44f,  1e-3f,  tiny};
  std::vector<float> m_values(v_values.size());
  std::vector<float> grad(v_values.size());
  for (std::size_t i = 0; i < v_values.size(); ++i) {
    m_values[i] = i % 2 == 0 ? 1e-20f : -tiny;
    grad[i] = i % 3 == 0 ? 1e-30f : (i % 3 == 1 ? -tiny : 0.0f);
  }
  AdamPair pair(1, static_cast<std::int32_t>(v_values.size()), config);
  pair.restore(1, row_of(m_values), row_of(v_values));
  for (int step = 0; step < 6; ++step) {
    EXPECT_TRUE(pair.step(one_row(0, grad)));
  }
}

TEST(RowAdamBytes, HugeSecondMomentAndGradients) {
  // Gradients near 3e19 from step 1, where 1 - beta2^t is 0.001: v_hat
  // passes FLT_MAX (a float-seeded reciprocal square root reads it as inf),
  // and second moments near FLT_MAX overflow to inf.
  AdamConfig config;
  config.learning_rate = 0.01;
  const float max = std::numeric_limits<float>::max();
  const std::vector<float> grad{3e19f,  -3e19f, 2.9e19f, 3.1e19f,
                                -1e19f, 5e18f,  3e19f,   -3.3e19f,
                                1.0f,   3e19f};
  std::vector<float> v_values(grad.size(), 0.0f);
  v_values[2] = max;
  v_values[3] = 0.99f * max;
  v_values[5] = 3e38f;
  v_values[9] = max;
  std::vector<float> p_values(grad.size(), 0.25f);
  AdamPair pair(1, static_cast<std::int32_t>(grad.size()), config);
  pair.restore(0, EmbeddingMatrix(1, static_cast<std::int32_t>(grad.size())),
               row_of(v_values));
  pair.set_params(row_of(p_values));
  for (int step = 0; step < 5; ++step) {
    EXPECT_TRUE(pair.step(one_row(0, grad)));
  }
}

TEST(RowAdamBytes, SignedZeros) {
  // Every combination of +-0 in p, the first moment and the gradient, with
  // v = 0 and v > 0: m_hat = -0 must step by -0, and p = -0 minus a -0 step
  // is +0.
  for (const double wd : {0.0, 0.01}) {
    AdamConfig config;
    config.weight_decay = wd;
    std::vector<float> p_values, m_values, v_values, grad;
    for (int bits = 0; bits < 16; ++bits) {
      p_values.push_back((bits & 1) != 0 ? -0.0f : 0.0f);
      m_values.push_back((bits & 2) != 0 ? -0.0f : 0.0f);
      grad.push_back((bits & 4) != 0 ? -0.0f : 0.0f);
      v_values.push_back((bits & 8) != 0 ? 1e-3f : 0.0f);
    }
    AdamPair pair(1, 16, config);
    pair.restore(4, row_of(m_values), row_of(v_values));
    pair.set_params(row_of(p_values));
    EXPECT_TRUE(pair.step(one_row(0, grad))) << "wd " << wd;
  }
}

TEST(RowAdamBytes, NanAndInfiniteGradients) {
  // NaN and +-inf gradients in lanes next to finite ones; the moments keep
  // the NaN and inf into the steps after.
  AdamConfig config;
  config.learning_rate = 0.01;
  config.weight_decay = 1e-4;
  const std::vector<float> grad{kNaN, 0.5f,  kInf, -kInf, -0.25f, 1.0f,
                                -kNaN, 2e-3f, 0.1f, kInf,  -1.0f,  kNaN};
  std::vector<float> finite(grad.size());
  for (std::size_t i = 0; i < grad.size(); ++i) {
    finite[i] = 0.1f * static_cast<float>(i) - 0.5f;
  }
  AdamPair pair(2, static_cast<std::int32_t>(grad.size()), config);
  for (int step = 0; step < 3; ++step) {
    SparseGrad grads(static_cast<std::int32_t>(grad.size()));
    std::ranges::copy(grad, grads.accumulate(0).begin());
    std::ranges::copy(finite, grads.accumulate(1).begin());
    EXPECT_TRUE(pair.step(grads));
  }
}

/// `rows` x `width` values uniform in [lo, hi).
EmbeddingMatrix uniform(std::int32_t rows, std::int32_t width, double lo,
                        double hi, util::Rng& rng) {
  EmbeddingMatrix matrix(rows, width);
  for (float& x : matrix.flat()) {
    x = static_cast<float>(rng.next_double(lo, hi));
  }
  return matrix;
}

/// Gradient rows for `ids`, uniform in [-scale, scale).
SparseGrad random_grads(std::int32_t width, std::span<const std::int32_t> ids,
                        double scale, util::Rng& rng) {
  SparseGrad grads(width);
  for (const std::int32_t id : ids) {
    for (float& x : grads.accumulate(id)) {
      x = static_cast<float>(rng.next_double(-scale, scale));
    }
  }
  return grads;
}

TEST(RowAdamBytes, StepsWhereBias1ReachesOne) {
  // 1 - 0.9^t is below 1.0 at t = 355 and rounds to 1.0 from t = 356.
  AdamConfig config;
  config.learning_rate = 0.01;
  config.weight_decay = 1e-4;
  ASSERT_NE(1.0 - std::pow(config.beta1, 355.0), 1.0);
  ASSERT_EQ(1.0 - std::pow(config.beta1, 356.0), 1.0);
  util::Rng rng(53);
  AdamPair pair(4, 24, config);
  pair.restore(354, uniform(4, 24, -0.1, 0.1, rng),
               uniform(4, 24, 0.0, 0.01, rng));
  pair.set_params(uniform(4, 24, -1.0, 1.0, rng));
  const std::vector<std::int32_t> ids{0, 1, 2, 3};
  for (int step = 355; step <= 358; ++step) {
    EXPECT_TRUE(pair.step(random_grads(24, ids, 0.1, rng)));
  }
}

TEST(RowAdamBytes, StepScalarsOutsideTheLaneDomain) {
  // A learning rate, epsilon or bias correction for which the estimate
  // lane's error bound is not derived: every element takes the exact step.
  struct Case {
    const char* name;
    AdamConfig config;
  };
  std::vector<Case> cases;
  for (const double lr : {0.0, 1e-25, 1e25, -0.01}) {
    AdamConfig config;
    config.learning_rate = lr;
    cases.push_back({"learning rate", config});
  }
  for (const double epsilon : {0.0, -1e-8, 1e30}) {
    AdamConfig config;
    config.epsilon = epsilon;
    cases.push_back({"epsilon", config});
  }
  AdamConfig slow_beta2;
  slow_beta2.beta2 = 1.0 - 1e-25;  // rounds to 1.0: 1 - beta2^t is 0
  cases.push_back({"beta2", slow_beta2});
  for (const Case& c : cases) {
    util::Rng rng(59);
    AdamPair pair(2, 16, c.config);
    pair.set_params(uniform(2, 16, -1.0, 1.0, rng));
    const std::vector<std::int32_t> ids{0, 1};
    for (int step = 0; step < 3; ++step) {
      EXPECT_TRUE(pair.step(random_grads(16, ids, 1.0, rng)))
          << c.name << " lr " << c.config.learning_rate << " epsilon "
          << c.config.epsilon;
    }
  }
}

TEST(RowAdamBytes, RowWidthsAroundTheLane) {
  // The AVX-512F lane takes eight elements at a time and leaves the rest
  // of a row to the exact loop.
  for (const std::int32_t width : {1, 7, 8, 9, 64, 70}) {
    AdamConfig config;
    config.learning_rate = 0.02;
    config.weight_decay = 1e-3;
    util::Rng rng(61 + static_cast<std::uint64_t>(width));
    AdamPair pair(6, width, config);
    pair.set_params(uniform(6, width, -1.0, 1.0, rng));
    const std::vector<std::int32_t> ids{5, 0, 3};
    for (int step = 0; step < 5; ++step) {
      EXPECT_TRUE(pair.step(random_grads(width, ids, 0.5, rng)))
          << "width " << width;
    }
  }
}

TEST(RowAdamBytes, SeededTrajectories) {
  // 40 steps of each (gradient scale, weight decay, learning rate) of the
  // grid, each step touching a random half of the rows, so moments carry
  // across steps and rows skip steps.
  constexpr std::int32_t kRows = 16;
  constexpr std::int32_t kWidth = 64;
  for (const double scale : {1e-6, 1e-4, 1e-2, 1.0, 1e3}) {
    for (const double wd : {0.0, 1e-4, 1e-2}) {
      for (const double lr : {1e-3, 0.1, 1.0}) {
        AdamConfig config;
        config.learning_rate = lr;
        config.weight_decay = wd;
        util::Rng rng(67);
        AdamPair pair(kRows, kWidth, config);
        pair.set_params(uniform(kRows, kWidth, -1.0, 1.0, rng));
        for (int step = 0; step < 40; ++step) {
          std::vector<std::int32_t> ids;
          for (std::int32_t id = 0; id < kRows; ++id) {
            if (rng.next_below(2) == 0) ids.push_back(id);
          }
          ASSERT_TRUE(pair.step(random_grads(kWidth, ids, scale, rng)))
              << "scale " << scale << " wd " << wd << " lr " << lr;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dynkge::kge
