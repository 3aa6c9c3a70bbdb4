#include "comm/communicator.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

namespace dynkge::comm {
namespace {

class CommunicatorP : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Ranks, CommunicatorP,
                         ::testing::Values(1, 2, 3, 4, 5, 8));

TEST_P(CommunicatorP, BarrierCompletes) {
  Cluster cluster(GetParam());
  std::atomic<int> arrivals{0};
  cluster.run([&](Communicator& comm) {
    for (int i = 0; i < 10; ++i) comm.barrier();
    arrivals.fetch_add(1);
  });
  EXPECT_EQ(arrivals.load(), GetParam());
}

TEST_P(CommunicatorP, AllReduceSumMatchesSequentialReference) {
  const int p = GetParam();
  Cluster cluster(p);
  const std::size_t n = 100;
  cluster.run([&](Communicator& comm) {
    std::vector<float> in(n), out(n);
    for (std::size_t i = 0; i < n; ++i) {
      in[i] = static_cast<float>(comm.rank() + 1) * static_cast<float>(i);
    }
    comm.allreduce_sum(in, out);
    const float rank_sum = p * (p + 1) / 2.0f;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_FLOAT_EQ(out[i], rank_sum * static_cast<float>(i));
    }
  });
}

TEST_P(CommunicatorP, AllReduceInPlace) {
  const int p = GetParam();
  Cluster cluster(p);
  cluster.run([&](Communicator& comm) {
    std::vector<float> data(8, 1.0f);
    comm.allreduce_sum_inplace(data);
    for (const float v : data) EXPECT_FLOAT_EQ(v, static_cast<float>(p));
  });
}

TEST_P(CommunicatorP, AllReduceDeterministicAcrossRanks) {
  // All ranks must compute bit-identical sums (rank-ordered accumulation).
  const int p = GetParam();
  Cluster cluster(p);
  std::vector<std::vector<float>> results(p);
  cluster.run([&](Communicator& comm) {
    std::vector<float> in(64);
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = 0.1f * static_cast<float>(comm.rank()) + 1e-3f * i;
    }
    std::vector<float> out(in.size());
    comm.allreduce_sum(in, out);
    results[comm.rank()] = out;
  });
  for (int r = 1; r < p; ++r) EXPECT_EQ(results[r], results[0]);
}

TEST_P(CommunicatorP, ScalarReductions) {
  const int p = GetParam();
  Cluster cluster(p);
  cluster.run([&](Communicator& comm) {
    const double mine = comm.rank() + 1.0;
    EXPECT_DOUBLE_EQ(comm.allreduce_scalar(mine, ScalarOp::kSum),
                     p * (p + 1) / 2.0);
    EXPECT_DOUBLE_EQ(comm.allreduce_scalar(mine, ScalarOp::kMin), 1.0);
    EXPECT_DOUBLE_EQ(comm.allreduce_scalar(mine, ScalarOp::kMax),
                     static_cast<double>(p));
  });
}

TEST_P(CommunicatorP, AllGatherVConcatenatesInRankOrder) {
  const int p = GetParam();
  Cluster cluster(p);
  cluster.run([&](Communicator& comm) {
    // Rank r contributes r+1 ints with value r.
    std::vector<int> local(comm.rank() + 1, comm.rank());
    std::vector<int> out;
    std::vector<std::size_t> counts;
    comm.allgatherv(std::span<const int>(local), out, counts);
    ASSERT_EQ(counts.size(), static_cast<std::size_t>(p));
    std::size_t expected_total = 0;
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(counts[r], static_cast<std::size_t>(r + 1));
      expected_total += r + 1;
    }
    ASSERT_EQ(out.size(), expected_total);
    std::size_t idx = 0;
    for (int r = 0; r < p; ++r) {
      for (int k = 0; k <= r; ++k) EXPECT_EQ(out[idx++], r);
    }
  });
}

TEST_P(CommunicatorP, AllGatherVEmptyContributions) {
  const int p = GetParam();
  Cluster cluster(p);
  cluster.run([&](Communicator& comm) {
    // Odd ranks contribute nothing.
    std::vector<double> local;
    if (comm.rank() % 2 == 0) local.assign(2, comm.rank() * 1.0);
    std::vector<double> out;
    std::vector<std::size_t> counts;
    comm.allgatherv(std::span<const double>(local), out, counts);
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(counts[r], r % 2 == 0 ? 2u : 0u);
    }
  });
}

TEST_P(CommunicatorP, SimClockAdvancesWithCollectives) {
  const int p = GetParam();
  Cluster cluster(p);
  cluster.run([&](Communicator& comm) {
    EXPECT_DOUBLE_EQ(comm.sim_now(), 0.0);
    comm.sim_add_compute(1.0);
    std::vector<float> data(1024, 1.0f);
    comm.allreduce_sum_inplace(data);
    if (p > 1) {
      EXPECT_GT(comm.sim_now(), 1.0);
    } else {
      EXPECT_DOUBLE_EQ(comm.sim_now(), 1.0);
    }
  });
}

TEST_P(CommunicatorP, SimClockAlignsToSlowestRank) {
  const int p = GetParam();
  if (p < 2) GTEST_SKIP();
  Cluster cluster(p);
  cluster.run([&](Communicator& comm) {
    // Rank p-1 is the straggler: everyone must align to its clock.
    comm.sim_add_compute(comm.rank() == p - 1 ? 5.0 : 0.5);
    comm.barrier();
    EXPECT_GE(comm.sim_now(), 5.0);
  });
}

TEST_P(CommunicatorP, StatsAccumulate) {
  const int p = GetParam();
  Cluster cluster(p);
  cluster.run([&](Communicator& comm) {
    std::vector<float> data(256, 1.0f);
    comm.allreduce_sum_inplace(data);
    comm.allreduce_sum_inplace(data);
    const auto& ar = comm.stats().of(CollectiveKind::kAllReduce);
    EXPECT_EQ(ar.calls, 2u);
    EXPECT_EQ(ar.bytes, 2 * 256 * sizeof(float));
  });
}

TEST_P(CommunicatorP, ChargeAddsModeledTimeWithoutSync) {
  const int p = GetParam();
  Cluster cluster(p);
  cluster.run([&](Communicator& comm) {
    const double before = comm.sim_now();
    comm.charge(CollectiveKind::kAllReduce, 1 << 20, 0);
    if (p > 1) {
      EXPECT_GT(comm.sim_now(), before);
    }
    EXPECT_EQ(comm.stats().of(CollectiveKind::kAllReduce).calls, 1u);
  });
}

TEST_P(CommunicatorP, UnchargedAllGatherMovesDataButNoCost) {
  const int p = GetParam();
  Cluster cluster(p);
  cluster.run([&](Communicator& comm) {
    std::vector<std::byte> local(4, std::byte{0xAB});
    std::vector<std::byte> out;
    std::vector<std::size_t> counts;
    comm.allgatherv_bytes(local, out, counts, /*charge_cost=*/false);
    EXPECT_EQ(out.size(), 4u * p);
    EXPECT_EQ(comm.stats().of(CollectiveKind::kAllGatherV).calls, 0u);
  });
}

TEST_P(CommunicatorP, SlotGatherReadsEveryRankInPlace) {
  const int p = GetParam();
  Cluster cluster(p);
  cluster.run([&](Communicator& comm) {
    const std::vector<std::byte> local(
        static_cast<std::size_t>(comm.rank() + 1),
        static_cast<std::byte>(comm.rank()));
    int seen = 0;
    comm.allgatherv_slots(local, [&](Communicator::Slots slots) {
      ASSERT_EQ(slots.size(), static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        ASSERT_EQ(slots[r].size(), static_cast<std::size_t>(r + 1));
        for (const std::byte b : slots[r]) {
          EXPECT_EQ(b, static_cast<std::byte>(r));
        }
        ++seen;
      }
    });
    EXPECT_EQ(seen, p);
    EXPECT_EQ(comm.stats().of(CollectiveKind::kAllGatherV).calls, 1u);
  });
}

TEST_P(CommunicatorP, SlotGatherReaderErrorSurfacesAfterRelease) {
  // A reader that throws on one rank must not strand the others at the
  // release barrier nor end the process: the error is rethrown once the
  // rank is past the barrier and surfaces from Cluster::run.
  const int p = GetParam();
  Cluster cluster(p);
  std::atomic<int> released{0};
  EXPECT_THROW(
      cluster.run([&](Communicator& comm) {
        const std::byte token{1};
        comm.allgatherv_slots(
            std::span<const std::byte>(&token, 1),
            [&](Communicator::Slots) {
              if (comm.rank() == p - 1) throw std::runtime_error("decode");
            });
        released.fetch_add(1);
        comm.barrier();
      }),
      std::runtime_error);
  EXPECT_EQ(released.load(), p - 1);
}

TEST(Cluster, RejectsZeroRanks) {
  EXPECT_THROW(Cluster(0), std::invalid_argument);
}

TEST(Cluster, PropagatesRankException) {
  Cluster cluster(4);
  EXPECT_THROW(
      cluster.run([](Communicator& comm) {
        if (comm.rank() == 2) throw std::runtime_error("rank 2 failed");
        // Other ranks block on a collective and must be released by abort.
        comm.barrier();
        comm.barrier();
      }),
      std::runtime_error);
}

TEST(Cluster, ReusableForMultipleRuns) {
  Cluster cluster(3);
  for (int iteration = 0; iteration < 3; ++iteration) {
    cluster.run([&](Communicator& comm) {
      std::vector<float> v(4, 1.0f);
      comm.allreduce_sum_inplace(v);
      EXPECT_FLOAT_EQ(v[0], 3.0f);
    });
  }
}

TEST(Cluster, ManySmallCollectivesStress) {
  Cluster cluster(4);
  cluster.run([](Communicator& comm) {
    for (int i = 0; i < 500; ++i) {
      std::vector<float> v(8, static_cast<float>(comm.rank()));
      comm.allreduce_sum_inplace(v);
      EXPECT_FLOAT_EQ(v[0], 6.0f);  // 0+1+2+3
    }
  });
}

}  // namespace
}  // namespace dynkge::comm
