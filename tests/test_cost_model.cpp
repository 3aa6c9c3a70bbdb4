#include "comm/cost_model.hpp"

#include <gtest/gtest.h>

namespace dynkge::comm {
namespace {

TEST(CostModel, SingleRankIsFree) {
  const CostModel m;
  EXPECT_DOUBLE_EQ(m.broadcast_time(1, 1 << 20), 0.0);
  EXPECT_DOUBLE_EQ(m.allreduce_time(1, 1 << 20), 0.0);
  EXPECT_DOUBLE_EQ(m.allgatherv_time(1, 1 << 20, 1 << 20), 0.0);
  EXPECT_DOUBLE_EQ(m.gatherv_time(1, 1 << 20, 1 << 20), 0.0);
}

TEST(CostModel, AllReduceClosedForm) {
  const CostModelParams p{1e-6, 1e-9, 1e-10};
  const CostModel m(p);
  const int ranks = 4;
  const std::size_t bytes = 1000;
  const double expected = 2.0 * 3.0 * 1e-6 + 2.0 * 1000 * 0.75 * 1e-9 +
                          1000 * 0.75 * 1e-10;
  EXPECT_NEAR(m.allreduce_time(ranks, bytes), expected, 1e-15);
}

TEST(CostModel, AllGatherClosedForm) {
  const CostModelParams p{1e-6, 1e-9, 1e-10};
  const CostModel m(p);
  // total 4000 bytes, self 1000 -> receives 3000 bytes over 3 stages.
  const double expected = 3.0 * 1e-6 + 3000.0 * 1e-9;
  EXPECT_NEAR(m.allgatherv_time(4, 4000, 1000), expected, 1e-15);
}

TEST(CostModel, BroadcastLogStages) {
  const CostModelParams p{1e-6, 0.0, 0.0};
  const CostModel m(p);
  EXPECT_NEAR(m.broadcast_time(2, 0), 1e-6, 1e-15);
  EXPECT_NEAR(m.broadcast_time(4, 0), 2e-6, 1e-15);
  EXPECT_NEAR(m.broadcast_time(5, 0), 3e-6, 1e-15);
  EXPECT_NEAR(m.broadcast_time(8, 0), 3e-6, 1e-15);
}

TEST(CostModel, AllReduceSaturatesWithRanks) {
  // Ring allreduce bandwidth term approaches 2*S*beta: time grows with P
  // but is bounded; the allgather of a full matrix grows without bound.
  const CostModel m(CostModelParams{0.0, 1e-9, 0.0});
  const std::size_t bytes = 1 << 20;
  const double t4 = m.allreduce_time(4, bytes);
  const double t16 = m.allreduce_time(16, bytes);
  EXPECT_LT(t4, t16);
  EXPECT_LT(t16, 2.0 * bytes * 1e-9 * 1.01);
}

TEST(CostModel, CrossoverAllGatherVsAllReduce) {
  // The premise of strategy 1: with per-rank sparse contributions of size s,
  // allgather beats allreduce of the dense matrix M when P*s << 2M, and
  // loses once the gathered volume approaches the dense volume.
  const CostModel m;
  const std::size_t dense = 64u << 20;      // 64 MiB dense gradient matrix
  const std::size_t per_rank = 12u << 20;   // 12 MiB of non-zero rows
  const auto gather_total = [&](int p) { return per_rank * p; };

  const int small_p = 2;
  EXPECT_LT(m.allgatherv_time(small_p, gather_total(small_p), per_rank),
            m.allreduce_time(small_p, dense));

  const int large_p = 16;
  EXPECT_GT(m.allgatherv_time(large_p, gather_total(large_p), per_rank),
            m.allreduce_time(large_p, dense));
}

TEST(CostModel, QuantizationShrinksAllGatherCost) {
  const CostModel m;
  const std::size_t full = 32u << 20;
  const std::size_t quantized = full / 32;
  EXPECT_LT(m.allgatherv_time(8, quantized * 8, quantized),
            m.allgatherv_time(8, full * 8, full) / 16.0);
}

TEST(CostModel, TimeForDispatch) {
  const CostModel m;
  EXPECT_DOUBLE_EQ(m.time_for(CollectiveKind::kAllReduce, 4, 1000, 0),
                   m.allreduce_time(4, 1000));
  EXPECT_DOUBLE_EQ(m.time_for(CollectiveKind::kAllGatherV, 4, 1000, 250),
                   m.allgatherv_time(4, 1000, 250));
  EXPECT_DOUBLE_EQ(m.time_for(CollectiveKind::kGatherV, 4, 1000, 250),
                   m.gatherv_time(4, 1000, 250));
  EXPECT_DOUBLE_EQ(m.time_for(CollectiveKind::kBroadcast, 4, 1000, 1000),
                   m.broadcast_time(4, 1000));
}

TEST(CostModel, KindNames) {
  EXPECT_STREQ(to_string(CollectiveKind::kAllReduce), "allreduce");
  EXPECT_STREQ(to_string(CollectiveKind::kAllGatherV), "allgatherv");
  EXPECT_STREQ(to_string(CollectiveKind::kGatherV), "gatherv");
  EXPECT_STREQ(to_string(CollectiveKind::kBroadcast), "broadcast");
}

TEST(CommStats, RecordAndTotals) {
  CommStats stats;
  stats.record(CollectiveKind::kAllReduce, 100, 0.5);
  stats.record(CollectiveKind::kAllReduce, 200, 0.5);
  stats.record(CollectiveKind::kAllGatherV, 50, 0.25);
  EXPECT_EQ(stats.of(CollectiveKind::kAllReduce).calls, 2u);
  EXPECT_EQ(stats.of(CollectiveKind::kAllReduce).bytes, 300u);
  EXPECT_EQ(stats.total_bytes(), 350u);
  EXPECT_EQ(stats.total_calls(), 3u);
  EXPECT_DOUBLE_EQ(stats.total_modeled_seconds(), 1.25);
}

TEST(CommStats, MergeAndReset) {
  CommStats a, b;
  a.record(CollectiveKind::kBroadcast, 10, 0.1);
  b.record(CollectiveKind::kBroadcast, 20, 0.2);
  a.merge(b);
  EXPECT_EQ(a.of(CollectiveKind::kBroadcast).bytes, 30u);
  EXPECT_EQ(a.of(CollectiveKind::kBroadcast).calls, 2u);
  a.reset();
  EXPECT_EQ(a.total_bytes(), 0u);
}

TEST(CostModel, EthernetSlowerThanAries) {
  const CostModel aries{CostModelParams::aries()};
  const CostModel eth{CostModelParams::ethernet()};
  EXPECT_GT(eth.allreduce_time(8, 1 << 20), aries.allreduce_time(8, 1 << 20));
}

}  // namespace
}  // namespace dynkge::comm
