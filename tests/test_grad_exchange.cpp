#include "core/grad_exchange.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "golden_digest.hpp"
#include "row_ids.hpp"

namespace dynkge::core {
namespace {

using testing_util::row_ids;

constexpr std::int32_t kEntities = 100;
constexpr std::int32_t kRelations = 20;
constexpr std::int32_t kWidth = 8;

/// Deterministic per-rank gradient: rank r touches entity rows
/// {r, r+1, 10} and relation row {r % kRelations}.
kge::ModelGrads rank_grads(int rank) {
  kge::ModelGrads grads(kWidth, kWidth);
  for (const std::int32_t id :
       {rank, rank + 1, std::int32_t{10}}) {
    auto row = grads.entity.accumulate(id);
    for (std::int32_t i = 0; i < kWidth; ++i) {
      row[i] = static_cast<float>(rank + 1) * 0.125f * (i + 1);
    }
  }
  auto rel = grads.relation.accumulate(rank % kRelations);
  for (std::int32_t i = 0; i < kWidth; ++i) rel[i] = 1.0f;
  return grads;
}

class GradExchangeP : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, GradExchangeP, ::testing::Values(1, 2, 4, 8));

TEST_P(GradExchangeP, AllGatherMergeMatchesManualSum) {
  const int ranks = GetParam();
  comm::Cluster cluster(ranks);
  cluster.run([&](comm::Communicator& comm) {
    const StrategyConfig strategy = StrategyConfig::baseline_allgather();
    GradExchange exchange(comm, strategy, kEntities, kWidth, kRelations,
                          kWidth);
    kge::ModelGrads local = rank_grads(comm.rank());
    kge::ModelGrads merged(kWidth, kWidth);
    ExchangePlan plan;
    plan.transport = Transport::kAllGather;
    util::Rng rng(1);
    exchange.exchange(local, merged, plan, rng);

    // Row 10 is touched by every rank: expected value is the average of
    // all ranks' contributions.
    float expected = 0.0f;
    for (int r = 0; r < ranks; ++r) expected += (r + 1) * 0.125f;
    expected /= static_cast<float>(ranks);
    ASSERT_TRUE(merged.entity.has(10));
    EXPECT_NEAR(merged.entity.row(10)[0], expected, 1e-6);

    // Rank-exclusive rows survive scaled by 1/ranks.
    if (ranks > 2) {
      ASSERT_TRUE(merged.entity.has(0));
      EXPECT_NEAR(merged.entity.row(0)[0], 0.125f / ranks, 1e-6);
    }
  });
}

TEST_P(GradExchangeP, AllReduceAndAllGatherAgreeNumerically) {
  const int ranks = GetParam();
  comm::Cluster cluster(ranks);
  cluster.run([&](comm::Communicator& comm) {
    const StrategyConfig strategy = StrategyConfig::baseline_allreduce();
    GradExchange exchange(comm, strategy, kEntities, kWidth, kRelations,
                          kWidth);
    util::Rng rng(1);

    kge::ModelGrads local_a = rank_grads(comm.rank());
    kge::ModelGrads merged_a(kWidth, kWidth);
    ExchangePlan reduce_plan;
    reduce_plan.transport = Transport::kAllReduce;
    exchange.exchange(local_a, merged_a, reduce_plan, rng);

    kge::ModelGrads local_b = rank_grads(comm.rank());
    kge::ModelGrads merged_b(kWidth, kWidth);
    ExchangePlan gather_plan;
    gather_plan.transport = Transport::kAllGather;
    exchange.exchange(local_b, merged_b, gather_plan, rng);

    ASSERT_EQ(row_ids(merged_a.entity), row_ids(merged_b.entity));
    for (const std::int32_t id : row_ids(merged_a.entity)) {
      const auto a = merged_a.entity.row(id);
      const auto b = merged_b.entity.row(id);
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_FLOAT_EQ(a[i], b[i]);
      }
    }
  });
}

TEST_P(GradExchangeP, MergedResultIdenticalOnAllRanks) {
  const int ranks = GetParam();
  comm::Cluster cluster(ranks);
  std::vector<std::vector<float>> row10(ranks);
  cluster.run([&](comm::Communicator& comm) {
    StrategyConfig strategy = StrategyConfig::rs_1bit();
    GradExchange exchange(comm, strategy, kEntities, kWidth, kRelations,
                          kWidth);
    kge::ModelGrads local = rank_grads(comm.rank());
    kge::ModelGrads merged(kWidth, kWidth);
    ExchangePlan plan;
    plan.transport = Transport::kAllGather;
    util::Rng rng(comm.rank() + 1);  // rank-distinct randomness
    exchange.exchange(local, merged, plan, rng);
    const auto row = merged.entity.row(10);
    row10[comm.rank()].assign(row.begin(), row.end());
  });
  for (int r = 1; r < ranks; ++r) EXPECT_EQ(row10[r], row10[0]);
}

TEST_P(GradExchangeP, AllReduceChargesDenseCost) {
  const int ranks = GetParam();
  if (ranks < 2) GTEST_SKIP();
  comm::Cluster cluster(ranks);
  cluster.run([&](comm::Communicator& comm) {
    const StrategyConfig strategy = StrategyConfig::baseline_allreduce();
    GradExchange exchange(comm, strategy, kEntities, kWidth, kRelations,
                          kWidth);
    kge::ModelGrads local = rank_grads(comm.rank());
    kge::ModelGrads merged(kWidth, kWidth);
    ExchangePlan plan;
    plan.transport = Transport::kAllReduce;
    util::Rng rng(1);
    const auto result = exchange.exchange(local, merged, plan, rng);

    // Dense bytes: full entity matrix + full relation matrix.
    const std::size_t expected =
        static_cast<std::size_t>(kEntities) * kWidth * sizeof(float) +
        static_cast<std::size_t>(kRelations) * kWidth * sizeof(float);
    EXPECT_EQ(result.bytes_on_wire, expected);
    EXPECT_GT(result.comm_seconds, 0.0);
    EXPECT_EQ(comm.stats().of(comm::CollectiveKind::kAllReduce).calls, 2u);
  });
}

TEST_P(GradExchangeP, QuantizationShrinksGatherBytes) {
  const int ranks = GetParam();
  comm::Cluster cluster(ranks);
  cluster.run([&](comm::Communicator& comm) {
    util::Rng rng(1);
    ExchangePlan plan;
    plan.transport = Transport::kAllGather;

    StrategyConfig raw = StrategyConfig::baseline_allgather();
    GradExchange raw_exchange(comm, raw, kEntities, kWidth, kRelations,
                              kWidth);
    kge::ModelGrads local_a = rank_grads(comm.rank());
    kge::ModelGrads merged(kWidth, kWidth);
    const auto raw_result =
        raw_exchange.exchange(local_a, merged, plan, rng);

    StrategyConfig quant = StrategyConfig::baseline_allgather();
    quant.quant = QuantMode::kOneBit;
    GradExchange quant_exchange(comm, quant, kEntities, kWidth, kRelations,
                                kWidth);
    kge::ModelGrads local_b = rank_grads(comm.rank());
    const auto quant_result =
        quant_exchange.exchange(local_b, merged, plan, rng);

    EXPECT_LT(quant_result.bytes_on_wire, raw_result.bytes_on_wire / 2);
  });
}

TEST_P(GradExchangeP, SkippingRelationsMovesFewerBytes) {
  const int ranks = GetParam();
  comm::Cluster cluster(ranks);
  cluster.run([&](comm::Communicator& comm) {
    const StrategyConfig strategy = StrategyConfig::baseline_allgather();
    GradExchange exchange(comm, strategy, kEntities, kWidth, kRelations,
                          kWidth);
    util::Rng rng(1);
    ExchangePlan with_relations;
    with_relations.transport = Transport::kAllGather;
    with_relations.exchange_relations = true;
    kge::ModelGrads local_a = rank_grads(comm.rank());
    kge::ModelGrads merged(kWidth, kWidth);
    const auto with = exchange.exchange(local_a, merged, with_relations, rng);

    ExchangePlan without;
    without.transport = Transport::kAllGather;
    without.exchange_relations = false;
    kge::ModelGrads local_b = rank_grads(comm.rank());
    const auto skip = exchange.exchange(local_b, merged, without, rng);

    EXPECT_LT(skip.bytes_on_wire, with.bytes_on_wire);
    EXPECT_TRUE(merged.relation.empty());
  });
}

TEST_P(GradExchangeP, ParameterServerAgreesWithAllReduceNumerically) {
  // All three transports are different *timings* of the same merge: the
  // resulting averaged gradient must be bit-identical.
  const int ranks = GetParam();
  comm::Cluster cluster(ranks);
  cluster.run([&](comm::Communicator& comm) {
    const StrategyConfig strategy =
        StrategyConfig::baseline_parameter_server();
    GradExchange exchange(comm, strategy, kEntities, kWidth, kRelations,
                          kWidth);
    util::Rng rng(1);

    kge::ModelGrads local_a = rank_grads(comm.rank());
    kge::ModelGrads merged_a(kWidth, kWidth);
    ExchangePlan ps_plan;
    ps_plan.transport = Transport::kParameterServer;
    exchange.exchange(local_a, merged_a, ps_plan, rng);

    kge::ModelGrads local_b = rank_grads(comm.rank());
    kge::ModelGrads merged_b(kWidth, kWidth);
    ExchangePlan reduce_plan;
    reduce_plan.transport = Transport::kAllReduce;
    exchange.exchange(local_b, merged_b, reduce_plan, rng);

    ASSERT_EQ(row_ids(merged_a.entity), row_ids(merged_b.entity));
    for (const std::int32_t id : row_ids(merged_a.entity)) {
      const auto a = merged_a.entity.row(id);
      const auto b = merged_b.entity.row(id);
      for (std::size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
    }
  });
}

TEST_P(GradExchangeP, ParameterServerChargesGatherPlusBroadcast) {
  const int ranks = GetParam();
  comm::Cluster cluster(ranks);
  cluster.run([&](comm::Communicator& comm) {
    const StrategyConfig strategy =
        StrategyConfig::baseline_parameter_server();
    GradExchange exchange(comm, strategy, kEntities, kWidth, kRelations,
                          kWidth);
    kge::ModelGrads local = rank_grads(comm.rank());
    kge::ModelGrads merged(kWidth, kWidth);
    ExchangePlan plan;
    plan.transport = Transport::kParameterServer;
    util::Rng rng(1);
    exchange.exchange(local, merged, plan, rng);
    // One gatherv + one broadcast per exchanged matrix (entity, relation).
    EXPECT_EQ(comm.stats().of(comm::CollectiveKind::kGatherV).calls, 2u);
    EXPECT_EQ(comm.stats().of(comm::CollectiveKind::kBroadcast).calls, 2u);
    EXPECT_EQ(comm.stats().of(comm::CollectiveKind::kAllReduce).calls, 0u);
  });
}

TEST(GradExchange, ParameterServerCostGrowsLinearlyWithRanks) {
  // The paper's motivation for synchronous collectives: the server link
  // carries every worker's traffic, so modeled time grows ~linearly in
  // the number of workers (ring all-reduce saturates instead).
  const auto ps_time = [](int ranks) {
    double seconds = 0.0;
    comm::Cluster cluster(ranks);
    cluster.run([&](comm::Communicator& comm) {
      const StrategyConfig strategy =
          StrategyConfig::baseline_parameter_server();
      GradExchange exchange(comm, strategy, kEntities, kWidth, kRelations,
                            kWidth);
      kge::ModelGrads local = rank_grads(comm.rank());
      kge::ModelGrads merged(kWidth, kWidth);
      ExchangePlan plan;
      plan.transport = Transport::kParameterServer;
      util::Rng rng(1);
      const auto result = exchange.exchange(local, merged, plan, rng);
      if (comm.rank() == 0) seconds = result.comm_seconds;
    });
    return seconds;
  };
  const double t2 = ps_time(2);
  const double t8 = ps_time(8);
  EXPECT_GT(t8, 2.5 * t2);
}

TEST(GradExchange, ErrorFeedbackCompensatesQuantization) {
  // With mean-scale 1-bit quantization (a contraction), error feedback
  // makes the *accumulated* transmitted gradient track the accumulated
  // true gradient: residuals stay bounded while the no-feedback variant
  // keeps losing the same per-step error.
  comm::Cluster cluster(1);
  cluster.run([&](comm::Communicator& comm) {
    StrategyConfig strategy = StrategyConfig::baseline_allgather();
    strategy.quant = QuantMode::kOneBit;
    strategy.one_bit_scale = OneBitScale::kMean;
    strategy.error_feedback = true;
    GradExchange exchange(comm, strategy, kEntities, kWidth, kRelations,
                          kWidth);
    util::Rng rng(3);

    // Constant true gradient, many steps.
    std::vector<double> transmitted(kWidth, 0.0);
    const int kSteps = 400;
    for (int step = 0; step < kSteps; ++step) {
      kge::ModelGrads local(kWidth, kWidth);
      auto row = local.entity.accumulate(5);
      for (std::int32_t i = 0; i < kWidth; ++i) {
        row[i] = 0.01f * static_cast<float>(i + 1);
      }
      kge::ModelGrads merged(kWidth, kWidth);
      ExchangePlan plan;
      plan.transport = Transport::kAllGather;
      exchange.exchange(local, merged, plan, rng);
      const auto out = merged.entity.row(5);
      for (std::int32_t i = 0; i < kWidth; ++i) transmitted[i] += out[i];
    }
    // Accumulated transmission approximates accumulated truth within a
    // bounded residual (<= one quantization step per component).
    for (std::int32_t i = 0; i < kWidth; ++i) {
      const double truth = 0.01 * (i + 1) * kSteps;
      EXPECT_NEAR(transmitted[i] / truth, 1.0, 0.1) << "component " << i;
    }
  });
}

class ErrorFeedbackConservationP
    : public ::testing::TestWithParam<QuantMode> {};
INSTANTIATE_TEST_SUITE_P(Codes, ErrorFeedbackConservationP,
                         ::testing::Values(QuantMode::kOneBit,
                                           QuantMode::kTwoBit));

TEST_P(ErrorFeedbackConservationP, SentPlusParkedEqualsGradientSum) {
  // Error feedback parks exactly what the code sent left out, so after N
  // exchanges the gradients fed in add up to what was sent plus what is
  // still parked, up to float rounding.
  constexpr std::int32_t kRowWidth = 32;
  constexpr int kSteps = 200;
  comm::Cluster cluster(1);
  cluster.run([&](comm::Communicator& comm) {
    StrategyConfig strategy = StrategyConfig::baseline_allgather();
    strategy.quant = GetParam();
    strategy.one_bit_scale = OneBitScale::kMean;
    strategy.error_feedback = true;
    GradExchange exchange(comm, strategy, kEntities, kRowWidth, kRelations,
                          kRowWidth);
    util::Rng data_rng(5);
    util::Rng rng(6);
    std::vector<double> fed(kRowWidth, 0.0);
    std::vector<double> sent(kRowWidth, 0.0);
    for (int step = 0; step < kSteps; ++step) {
      kge::ModelGrads local(kRowWidth, kRowWidth);
      auto row = local.entity.accumulate(7);
      for (std::int32_t i = 0; i < kRowWidth; ++i) {
        row[i] = static_cast<float>(data_rng.next_double(-1, 1));
        fed[i] += row[i];
      }
      kge::ModelGrads merged(kRowWidth, kRowWidth);
      ExchangePlan plan;
      plan.transport = Transport::kAllGather;
      exchange.exchange(local, merged, plan, rng);
      const auto out = merged.entity.row(7);
      for (std::int32_t i = 0; i < kRowWidth; ++i) sent[i] += out[i];
    }
    const auto parked = exchange.entity_residuals().row(7);
    for (std::int32_t i = 0; i < kRowWidth; ++i) {
      EXPECT_NEAR(fed[i], sent[i] + parked[i], 1e-5) << "component " << i;
    }
  });
}

/// Pseudo-random gradient for (rank, step): six entity rows drawn from
/// the first 24 ids (so ranks overlap and rows recur across steps) and two
/// relation rows, values in [-1, 1).
kge::ModelGrads random_grads(int rank, int step) {
  util::Rng rng(util::derive_seed(17, rank, step));
  kge::ModelGrads grads(kWidth, kWidth);
  for (int r = 0; r < 6; ++r) {
    auto row = grads.entity.accumulate(
        static_cast<std::int32_t>(rng.next_below(24)));
    for (float& v : row) v += static_cast<float>(rng.next_double(-1, 1));
  }
  for (int r = 0; r < 2; ++r) {
    auto row = grads.relation.accumulate(
        static_cast<std::int32_t>(rng.next_below(kRelations)));
    for (float& v : row) v += static_cast<float>(rng.next_double(-1, 1));
  }
  return grads;
}

/// Each row's id, then its bytes, in the store's ascending walk.
std::uint64_t rows_digest(const kge::SparseGrad& rows, std::uint64_t hash) {
  for (const kge::SparseGrad::SlotRef& slot : rows.sorted_slots()) {
    const auto row = rows.row_at(slot.offset);
    hash = testing_util::fnv1a_value(slot.id, hash);
    hash = util::fnv1a(row.data(), row.size_bytes(), hash);
  }
  return hash;
}

TEST(GradExchange, ErrorFeedbackBytesMatchGolden) {
  // Two ranks, 1-bit codes with error feedback, six exchanges (the fourth
  // on all-reduce, where no code is sent and the residuals must wait).
  // Each rank digests the merged rows and its own residual stores after
  // every exchange; the golden covers both ranks.
  struct Case {
    OneBitScale scale;
    std::uint64_t golden;
  };
  for (const Case& c : {Case{OneBitScale::kMax, 0x1b642ba99c058563ULL},
                        Case{OneBitScale::kMean, 0x1cb3abd749519f03ULL}}) {
    std::array<std::uint64_t, 2> digests{};
    comm::Cluster cluster(2);
    cluster.run([&](comm::Communicator& comm) {
      StrategyConfig strategy = StrategyConfig::baseline_allgather();
      strategy.quant = QuantMode::kOneBit;
      strategy.one_bit_scale = c.scale;
      strategy.error_feedback = true;
      GradExchange exchange(comm, strategy, kEntities, kWidth, kRelations,
                            kWidth);
      util::Rng rng(util::derive_seed(29, comm.rank()));
      std::uint64_t hash = util::kFnv1aOffset;
      for (int step = 0; step < 6; ++step) {
        kge::ModelGrads local = random_grads(comm.rank(), step);
        kge::ModelGrads merged(kWidth, kWidth);
        ExchangePlan plan;
        plan.transport =
            step == 3 ? Transport::kAllReduce : Transport::kAllGather;
        exchange.exchange(local, merged, plan, rng);
        hash = rows_digest(merged.entity, hash);
        hash = rows_digest(merged.relation, hash);
        hash = rows_digest(exchange.entity_residuals(), hash);
        hash = rows_digest(exchange.relation_residuals(), hash);
      }
      digests[static_cast<std::size_t>(comm.rank())] = hash;
    });
    const std::uint64_t digest =
        testing_util::fnv1a_value(digests[1], digests[0]);
    EXPECT_EQ(digest, c.golden)
        << "scale " << static_cast<int>(c.scale) << ": golden "
        << testing_util::hex64(c.golden) << ", got "
        << testing_util::hex64(digest);
  }
}

TEST(GradExchange, EmptyGradientsExchangeCleanly) {
  comm::Cluster cluster(4);
  cluster.run([&](comm::Communicator& comm) {
    const StrategyConfig strategy = StrategyConfig::baseline_allgather();
    GradExchange exchange(comm, strategy, kEntities, kWidth, kRelations,
                          kWidth);
    kge::ModelGrads local(kWidth, kWidth);  // nothing touched
    kge::ModelGrads merged(kWidth, kWidth);
    ExchangePlan plan;
    plan.transport = Transport::kAllGather;
    util::Rng rng(1);
    const auto result = exchange.exchange(local, merged, plan, rng);
    EXPECT_EQ(result.entity_rows_merged, 0u);
    EXPECT_TRUE(merged.entity.empty());
  });
}

}  // namespace
}  // namespace dynkge::core
