#include "core/grad_select.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "row_ids.hpp"

namespace dynkge::core {
namespace {

using testing_util::row_ids;

/// Build a gradient with rows of controlled 2-norms.
kge::SparseGrad make_grad(const std::vector<float>& norms) {
  kge::SparseGrad grad(4);
  for (std::size_t i = 0; i < norms.size(); ++i) {
    auto row = grad.accumulate(static_cast<std::int32_t>(i));
    row[0] = norms[i];  // one non-zero component -> 2-norm == norms[i]
  }
  return grad;
}

TEST(GradSelect, NoneKeepsEverything) {
  auto grad = make_grad({1.0f, 2.0f, 3.0f});
  util::Rng rng(1);
  const auto stats = select_gradient_rows(grad, SelectionMode::kNone, rng);
  EXPECT_EQ(stats.rows_before, 3u);
  EXPECT_EQ(stats.rows_after, 3u);
  EXPECT_EQ(grad.num_rows(), 3u);
  EXPECT_DOUBLE_EQ(stats.sparsity(), 0.0);
}

TEST(GradSelect, AverageThresholdDropsWeakRows) {
  // Norms 1, 1, 10 -> mean 4: only the 10-row survives.
  auto grad = make_grad({1.0f, 1.0f, 10.0f});
  util::Rng rng(1);
  const auto stats =
      select_gradient_rows(grad, SelectionMode::kAverageThreshold, rng);
  EXPECT_EQ(stats.rows_after, 1u);
  EXPECT_TRUE(grad.has(2));
  EXPECT_FALSE(grad.has(0));
  EXPECT_FALSE(grad.has(1));
}

TEST(GradSelect, AverageTenthIsMorePermissive) {
  // Mean 4, tenth-threshold 0.4: rows with norm 1 survive.
  auto grad = make_grad({1.0f, 1.0f, 10.0f});
  util::Rng rng(1);
  const auto stats =
      select_gradient_rows(grad, SelectionMode::kAverageTenth, rng);
  EXPECT_EQ(stats.rows_after, 3u);
}

TEST(GradSelect, BernoulliAlwaysKeepsAboveAverageRows) {
  // P(keep) = min(1, norm/mean) == 1 for rows at or above the mean.
  for (int seed = 0; seed < 20; ++seed) {
    auto grad = make_grad({1.0f, 1.0f, 10.0f});
    util::Rng rng(seed);
    select_gradient_rows(grad, SelectionMode::kBernoulli, rng);
    EXPECT_TRUE(grad.has(2)) << "seed " << seed;
  }
}

TEST(GradSelect, BernoulliKeepRateMatchesNormRatio) {
  // Row norm 1 with mean 2 -> keep probability 0.5.
  int kept = 0;
  constexpr int kTrials = 4000;
  util::Rng rng(42);
  for (int trial = 0; trial < kTrials; ++trial) {
    auto grad = make_grad({1.0f, 3.0f});  // mean 2
    select_gradient_rows(grad, SelectionMode::kBernoulli, rng);
    kept += grad.has(0);
    EXPECT_TRUE(grad.has(1));  // 3/2 > 1 -> always kept
  }
  EXPECT_NEAR(static_cast<double>(kept) / kTrials, 0.5, 0.05);
}

TEST(GradSelect, UniformNormsSurviveBernoulli) {
  // All rows at the mean: P(keep) = 1 for every row.
  auto grad = make_grad({2.0f, 2.0f, 2.0f, 2.0f});
  util::Rng rng(3);
  const auto stats =
      select_gradient_rows(grad, SelectionMode::kBernoulli, rng);
  EXPECT_EQ(stats.rows_after, 4u);
}

TEST(GradSelect, EmptyGradientIsNoop) {
  kge::SparseGrad grad(4);
  util::Rng rng(1);
  const auto stats =
      select_gradient_rows(grad, SelectionMode::kBernoulli, rng);
  EXPECT_EQ(stats.rows_before, 0u);
  EXPECT_EQ(stats.rows_after, 0u);
}

TEST(GradSelect, AllZeroRowsAreKept) {
  // Zero mean norm: selection cannot rank rows, so nothing is dropped.
  kge::SparseGrad grad(4);
  grad.accumulate(0);
  grad.accumulate(1);
  util::Rng rng(1);
  const auto stats =
      select_gradient_rows(grad, SelectionMode::kBernoulli, rng);
  EXPECT_EQ(stats.rows_after, 2u);
}

TEST(GradSelect, SparsityComputation) {
  SelectionStats stats;
  stats.rows_before = 10;
  stats.rows_after = 4;
  EXPECT_DOUBLE_EQ(stats.sparsity(), 0.6);
  stats.rows_before = 0;
  EXPECT_DOUBLE_EQ(stats.sparsity(), 0.0);
}

TEST(GradSelect, SurvivingValuesUntouched) {
  auto grad = make_grad({1.0f, 1.0f, 10.0f});
  util::Rng rng(1);
  select_gradient_rows(grad, SelectionMode::kAverageThreshold, rng);
  EXPECT_FLOAT_EQ(grad.row(2)[0], 10.0f);
}

TEST(GradSelector, WithoutResidualsMatchesFreeFunction) {
  auto a = make_grad({1.0f, 1.0f, 10.0f});
  auto b = make_grad({1.0f, 1.0f, 10.0f});
  util::Rng ra(5), rb(5);
  GradSelector selector(4, SelectionMode::kAverageThreshold, false);
  const auto sa = selector.apply(a, ra);
  const auto sb =
      select_gradient_rows(b, SelectionMode::kAverageThreshold, rb);
  EXPECT_EQ(sa.rows_after, sb.rows_after);
  EXPECT_EQ(row_ids(a), row_ids(b));
  EXPECT_EQ(selector.pending_rows(), 0u);
}

TEST(GradSelector, ParksDroppedRowsAsResiduals) {
  GradSelector selector(4, SelectionMode::kAverageThreshold, true);
  auto grad = make_grad({1.0f, 1.0f, 10.0f});
  util::Rng rng(1);
  selector.apply(grad, rng);
  EXPECT_EQ(selector.pending_rows(), 2u);  // rows 0 and 1 dropped
  EXPECT_FALSE(grad.has(0));
}

TEST(GradSelector, ResidualRedeliveredOnNextAppearance) {
  GradSelector selector(4, SelectionMode::kAverageThreshold, true);
  util::Rng rng(1);
  // Step 1: row 0 (norm 1) dropped against row 2 (norm 10); parked.
  auto step1 = make_grad({1.0f, 0.0f, 10.0f});
  selector.apply(step1, rng);
  ASSERT_EQ(selector.pending_rows(), 2u);
  // Step 2: row 0 appears with a big gradient; with the parked residual
  // folded in, its norm is 9 + 1 = 10, so it survives with the residual
  // included — the Aji & Heafield guarantee.
  kge::SparseGrad step2(4);
  step2.accumulate(0)[0] = 9.0f;
  step2.accumulate(2)[0] = 10.0f;
  selector.apply(step2, rng);
  ASSERT_TRUE(step2.has(0));
  EXPECT_FLOAT_EQ(step2.row(0)[0], 10.0f);  // 9 current + 1 residual
  EXPECT_EQ(selector.pending_rows(), 1u);   // only row 1 still parked
}

TEST(GradSelector, AccumulatedDeliveryApproachesTruth) {
  // A persistently weak row under Bernoulli selection: with residuals the
  // delivered total tracks the true total; without, a fraction is lost.
  const auto delivered_total = [](bool residuals) {
    GradSelector selector(4, SelectionMode::kBernoulli, residuals);
    util::Rng rng(33);
    double delivered = 0.0;
    for (int step = 0; step < 400; ++step) {
      kge::SparseGrad grad(4);
      grad.accumulate(0)[0] = 0.1f;   // weak row: P(keep) ~ 0.1/mean
      grad.accumulate(1)[0] = 2.0f;   // strong row, always kept
      selector.apply(grad, rng);
      if (grad.has(0)) delivered += grad.row(0)[0];
    }
    return delivered;
  };
  const double with_residuals = delivered_total(true);
  const double without = delivered_total(false);
  const double truth = 400 * 0.1;
  EXPECT_NEAR(with_residuals, truth, truth * 0.15);
  EXPECT_LT(without, truth * 0.5);
}

TEST(GradSelect, DeterministicGivenSeed) {
  auto a = make_grad({0.5f, 1.0f, 1.5f, 2.0f, 2.5f, 3.0f});
  auto b = make_grad({0.5f, 1.0f, 1.5f, 2.0f, 2.5f, 3.0f});
  util::Rng ra(99), rb(99);
  select_gradient_rows(a, SelectionMode::kBernoulli, ra);
  select_gradient_rows(b, SelectionMode::kBernoulli, rb);
  EXPECT_EQ(row_ids(a), row_ids(b));
}

// ---- Top-K ----------------------------------------------------------------

TEST(GradSelect, TopKKeepsExactlyKLargest) {
  auto grad = make_grad({0.5f, 3.0f, 1.0f, 2.0f, 0.1f});
  util::Rng rng(1);
  const auto stats =
      select_gradient_rows(grad, SelectionMode::kTopK, rng, /*topk_k=*/2);
  EXPECT_EQ(stats.rows_before, 5u);
  EXPECT_EQ(stats.rows_after, 2u);
  EXPECT_TRUE(grad.has(1));  // norm 3.0
  EXPECT_TRUE(grad.has(3));  // norm 2.0
  EXPECT_EQ(grad.num_rows(), 2u);
}

TEST(GradSelect, TopKTieBreaksTowardSmallerIds) {
  // Adversarial all-equal-norm rows: the ranking carries no information,
  // so the deterministic tie-break (smaller entity id wins) must decide.
  auto grad = make_grad({2.0f, 2.0f, 2.0f, 2.0f, 2.0f});
  util::Rng rng(7);
  select_gradient_rows(grad, SelectionMode::kTopK, rng, /*topk_k=*/3);
  EXPECT_EQ(row_ids(grad), (std::vector<std::int32_t>{0, 1, 2}));
}

TEST(GradSelect, TopKKeepsAllWhenKExceedsRows) {
  auto grad = make_grad({1.0f, 2.0f});
  util::Rng rng(1);
  const auto stats =
      select_gradient_rows(grad, SelectionMode::kTopK, rng, /*topk_k=*/10);
  EXPECT_EQ(stats.rows_after, 2u);
}

TEST(GradSelect, TopKWorksOnAllZeroGradient) {
  // Unlike the mean-norm modes (which keep everything when the mean is
  // zero), Top-K still enforces its cardinality bound; ties resolve by id.
  kge::SparseGrad grad(4);
  for (std::int32_t id : {4, 1, 7}) grad.accumulate(id);
  util::Rng rng(1);
  const auto stats =
      select_gradient_rows(grad, SelectionMode::kTopK, rng, /*topk_k=*/2);
  EXPECT_EQ(stats.rows_after, 2u);
  EXPECT_EQ(row_ids(grad), (std::vector<std::int32_t>{1, 4}));
}

TEST(GradSelect, TopKDeterministicAcrossRuns) {
  for (int trial = 0; trial < 10; ++trial) {
    util::Rng gen(1000 + trial);
    std::vector<float> norms(20);
    for (auto& n : norms) {
      n = static_cast<float>(gen.next_below(4));  // many ties
    }
    auto a = make_grad(norms);
    auto b = make_grad(norms);
    util::Rng ra(5), rb(99);  // Top-K must not consume randomness
    select_gradient_rows(a, SelectionMode::kTopK, ra, 7);
    select_gradient_rows(b, SelectionMode::kTopK, rb, 7);
    EXPECT_EQ(row_ids(a), row_ids(b)) << "trial " << trial;
  }
}

// ---- residual conservation (property/fuzz) --------------------------------

/// Mirror of the selector's residual bookkeeping, reproducing the exact
/// float operations: folding a parked residual into a fresh row is
/// element-wise float addition, and a dropped row parks its folded value.
using ShadowResiduals =
    std::unordered_map<std::int32_t, std::vector<float>>;

/// Conservation invariant, checked exactly (no tolerance): after apply(),
/// every id delivers its folded value either through the gradient (kept)
/// or the residual store (dropped) — never both, never a third value.
void check_conservation(const kge::SparseGrad& grad,
                        const GradSelector& selector,
                        const ShadowResiduals& expected_folded) {
  for (const auto& [id, folded] : expected_folded) {
    const bool kept = grad.has(id);
    const bool parked = selector.residuals().has(id);
    ASSERT_NE(kept, parked) << "id " << id
                            << " must be delivered XOR parked";
    const auto actual = kept ? grad.row(id) : selector.residuals().row(id);
    ASSERT_EQ(actual.size(), folded.size());
    for (std::size_t i = 0; i < folded.size(); ++i) {
      // Exact: promoted to double, no rounding slack.
      ASSERT_EQ(static_cast<double>(actual[i]),
                static_cast<double>(folded[i]))
          << "id " << id << " lane " << i;
    }
  }
}

TEST(GradSelector, ResidualConservationFuzzAllModes) {
  constexpr std::int32_t kWidth = 6;
  constexpr std::int32_t kIds = 40;
  const SelectionMode modes[] = {SelectionMode::kBernoulli,
                                 SelectionMode::kTopK,
                                 SelectionMode::kAverageThreshold,
                                 SelectionMode::kAverageTenth};
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    util::Rng gen(0xF022u + seed);
    const auto topk_k = static_cast<std::size_t>(1 + gen.next_below(8));
    GradSelector selector(kWidth, SelectionMode::kTopK, /*residuals=*/true,
                          topk_k);
    ShadowResiduals shadow;  // what we expect parked between steps
    util::Rng select_rng(0x5EEDu + seed);

    for (int step = 0; step < 60; ++step) {
      const SelectionMode mode = modes[gen.next_below(4)];
      kge::SparseGrad grad(kWidth);
      const std::size_t rows = 1 + gen.next_below(kIds);
      for (std::size_t r = 0; r < rows; ++r) {
        const auto id = static_cast<std::int32_t>(gen.next_below(kIds));
        auto row = grad.accumulate(id);
        for (auto& v : row) {
          // Mix of zero, tied, and random magnitudes (adversarial ties).
          const auto kind = gen.next_below(3);
          v = kind == 0 ? 0.0f
              : kind == 1
                  ? 1.0f
                  : static_cast<float>(gen.next_double(-2.0, 2.0));
        }
      }

      // Predict the folded values with the same float ops the selector
      // performs, then let it select.
      ShadowResiduals folded;
      for (const std::int32_t id : row_ids(grad)) {
        const auto row = grad.row(id);
        std::vector<float> value(row.begin(), row.end());
        const auto it = shadow.find(id);
        if (it != shadow.end()) {
          for (std::size_t i = 0; i < value.size(); ++i) {
            value[i] += it->second[i];
          }
        }
        folded.emplace(id, std::move(value));
      }

      selector.apply(grad, select_rng, mode);
      check_conservation(grad, selector, folded);

      // Roll the shadow forward: parked-and-untouched rows persist,
      // touched rows either delivered (gone) or re-parked (folded value).
      for (auto& [id, value] : folded) {
        if (grad.has(id)) {
          shadow.erase(id);
        } else {
          shadow[id] = value;
        }
      }
      ASSERT_EQ(selector.pending_rows(), shadow.size());
    }
  }
}

TEST(GradSelector, ModeSwitchSharesOneResidualMap) {
  // The dynamic Top-K arm switches selection per epoch on ONE selector;
  // mass parked by one mode must be redelivered by the next.
  GradSelector selector(4, SelectionMode::kTopK, /*residuals=*/true,
                        /*topk_k=*/1);
  util::Rng rng(3);
  auto step1 = make_grad({1.0f, 5.0f});
  selector.apply(step1, rng, SelectionMode::kTopK);
  ASSERT_FALSE(step1.has(0));  // parked under Top-K
  ASSERT_EQ(selector.pending_rows(), 1u);

  kge::SparseGrad step2(4);
  step2.accumulate(0)[0] = 1.0f;
  selector.apply(step2, rng, SelectionMode::kAverageThreshold);
  ASSERT_TRUE(step2.has(0));
  EXPECT_FLOAT_EQ(step2.row(0)[0], 2.0f);  // 1 fresh + 1 residual
  EXPECT_EQ(selector.pending_rows(), 0u);
}

TEST(GradSelector, RejectsGradientOfAnotherWidth) {
  // Folding or parking a row of another width would read or write past
  // the end of the shorter row.
  GradSelector selector(3, SelectionMode::kTopK, /*residuals=*/true,
                        /*topk_k=*/1);
  auto grad = make_grad({1.0f, 2.0f});  // width 4
  util::Rng rng(1);
  EXPECT_THROW(selector.apply(grad, rng), std::invalid_argument);
  kge::SparseGrad parked(3);
  EXPECT_THROW(select_gradient_rows(grad, SelectionMode::kTopK, rng,
                                    /*topk_k=*/1, &parked),
               std::invalid_argument);
}

TEST(GradSelector, ParkedRowsReuseFreedArenaRows) {
  // Each step folds parked rows back in (freeing their arena rows) and
  // parks the rows Top-K drops. Freed rows are reused, so over 50 ids the
  // store never holds an arena row past the 50th.
  constexpr std::int32_t kWidth = 3;
  constexpr std::int32_t kIds = 50;
  GradSelector selector(kWidth, SelectionMode::kTopK, /*residuals=*/true,
                        /*topk_k=*/5);
  util::Rng gen(0xA2E7Au);
  util::Rng rng(1);
  std::size_t peak = 0;
  for (int step = 0; step < 5000; ++step) {
    kge::SparseGrad grad(kWidth);
    const std::size_t rows = 1 + gen.next_below(kIds);
    for (std::size_t r = 0; r < rows; ++r) {
      const auto id = static_cast<std::int32_t>(gen.next_below(kIds));
      for (float& v : grad.accumulate(id)) {
        v = static_cast<float>(gen.next_double(-1.0, 1.0));
      }
    }
    selector.apply(grad, rng);
    for (const auto& slot : selector.residuals().sorted_slots()) {
      ASSERT_LT(slot.offset, static_cast<std::size_t>(kIds * kWidth))
          << "step " << step << ", id " << slot.id;
    }
    peak = std::max(peak, selector.pending_rows());
  }
  EXPECT_GT(peak, 5u) << "the run parked too few rows to test reuse";
}

TEST(GradSelector, TopKResidualsRotateStarvedRows) {
  // All-equal fresh gradients with k=1: error feedback grows the parked
  // rows' norms until each one wins in turn — no row is starved forever.
  GradSelector selector(4, SelectionMode::kTopK, /*residuals=*/true,
                        /*topk_k=*/1);
  util::Rng rng(4);
  std::vector<bool> delivered(3, false);
  for (int step = 0; step < 6; ++step) {
    auto grad = make_grad({1.0f, 1.0f, 1.0f});
    selector.apply(grad, rng);
    for (std::int32_t id = 0; id < 3; ++id) {
      if (grad.has(id)) delivered[static_cast<std::size_t>(id)] = true;
    }
  }
  EXPECT_TRUE(delivered[0]);
  EXPECT_TRUE(delivered[1]);
  EXPECT_TRUE(delivered[2]);
}

}  // namespace
}  // namespace dynkge::core
