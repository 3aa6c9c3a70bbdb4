#include "comm/communicator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace dynkge::comm {
namespace {

class CommunicatorP : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Ranks, CommunicatorP,
                         ::testing::Values(1, 2, 3, 4, 5, 8));

/// Each rank's slot reinterpreted as `T`s (slots carry whole elements).
template <typename T>
std::vector<std::vector<T>> gather_values(Communicator& comm,
                                          const std::vector<T>& local,
                                          bool charge_cost = true) {
  std::vector<std::vector<T>> out;
  comm.allgatherv_slots(
      std::as_bytes(std::span<const T>(local)),
      [&](Communicator::Slots slots) {
        for (const std::span<const std::byte> slot : slots) {
          std::vector<T> values(slot.size() / sizeof(T));
          if (!slot.empty()) {
            std::memcpy(values.data(), slot.data(), slot.size());
          }
          out.push_back(std::move(values));
        }
      },
      charge_cost);
  return out;
}

TEST_P(CommunicatorP, BarrierCompletes) {
  // An empty, uncharged gather is the runtime's barrier.
  Cluster cluster(GetParam());
  std::atomic<int> arrivals{0};
  cluster.run([&](Communicator& comm) {
    for (int i = 0; i < 10; ++i) {
      comm.allgatherv_slots({}, [](Communicator::Slots) {},
                            /*charge_cost=*/false);
    }
    arrivals.fetch_add(1);
  });
  EXPECT_EQ(arrivals.load(), GetParam());
}

TEST_P(CommunicatorP, AllReduceSumMatchesSequentialReference) {
  const int p = GetParam();
  Cluster cluster(p);
  cluster.run([&](Communicator& comm) {
    for (int i = 0; i < 100; ++i) {
      const double mine = (comm.rank() + 1) * 0.1 * i;
      double reference = 0.0;
      for (int r = 0; r < p; ++r) reference += (r + 1) * 0.1 * i;
      EXPECT_EQ(comm.allreduce_scalar(mine, ScalarOp::kSum), reference);
    }
  });
}

TEST_P(CommunicatorP, AllReduceInPlace) {
  // A dense float all-reduce the way the gradient exchange realizes it:
  // an uncharged gather summed in rank order into the caller's buffer,
  // charged as one all-reduce of the dense bytes.
  const int p = GetParam();
  Cluster cluster(p);
  cluster.run([&](Communicator& comm) {
    std::vector<float> data(8, 1.0f);
    const std::size_t bytes = data.size() * sizeof(float);
    const auto gathered = gather_values(comm, data, /*charge_cost=*/false);
    std::fill(data.begin(), data.end(), 0.0f);
    for (const auto& slot : gathered) {
      ASSERT_EQ(slot.size(), data.size());
      for (std::size_t i = 0; i < data.size(); ++i) data[i] += slot[i];
    }
    comm.charge(CollectiveKind::kAllReduce, bytes, bytes);
    for (const float v : data) EXPECT_FLOAT_EQ(v, static_cast<float>(p));
    const auto& ar = comm.stats().of(CollectiveKind::kAllReduce);
    EXPECT_EQ(ar.calls, 1u);
    EXPECT_EQ(ar.bytes, bytes);
    EXPECT_DOUBLE_EQ(ar.modeled_seconds, CostModel().allreduce_time(p, bytes));
    EXPECT_EQ(comm.stats().total_calls(), 1u);
  });
}

TEST_P(CommunicatorP, AllReduceDeterministicAcrossRanks) {
  // All ranks must compute bit-identical sums (rank-ordered accumulation),
  // even where double addition is not associative.
  const int p = GetParam();
  Cluster cluster(p);
  std::vector<double> results(p);
  cluster.run([&](Communicator& comm) {
    const double mine = 0.1 * static_cast<double>(comm.rank()) + 1e-17;
    results[comm.rank()] = comm.allreduce_scalar(mine, ScalarOp::kSum);
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
    const std::vector<int> local(comm.rank() + 1, comm.rank());
    const auto out = gather_values(comm, local);
    ASSERT_EQ(out.size(), static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(out[r], std::vector<int>(r + 1, r));
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
    const auto out = gather_values(comm, local);
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(out[r].size(), r % 2 == 0 ? 2u : 0u);
    }
  });
}

TEST_P(CommunicatorP, SimClockAdvancesWithCollectives) {
  const int p = GetParam();
  Cluster cluster(p);
  cluster.run([&](Communicator& comm) {
    EXPECT_DOUBLE_EQ(comm.sim_now(), 0.0);
    comm.sim_add_compute(1.0);
    comm.allreduce_scalar(1.0, ScalarOp::kSum);
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
    comm.allgatherv_slots({}, [](Communicator::Slots) {},
                          /*charge_cost=*/false);
    EXPECT_GE(comm.sim_now(), 5.0);
  });
}

TEST_P(CommunicatorP, StatsAccumulate) {
  const int p = GetParam();
  Cluster cluster(p);
  cluster.run([&](Communicator& comm) {
    const std::vector<float> data(256, 1.0f);
    gather_values(comm, data);
    gather_values(comm, data);
    const auto& ag = comm.stats().of(CollectiveKind::kAllGatherV);
    EXPECT_EQ(ag.calls, 2u);
    EXPECT_EQ(ag.bytes, 2 * 256 * sizeof(float));
  });
}

TEST_P(CommunicatorP, ScalarAllReduceIsChargedAsOneAllReduce) {
  // allreduce_scalar rides on an uncharged 8-byte gather: CommStats sees
  // one 8-byte all-reduce at the modeled all-reduce time, no all-gather.
  const int p = GetParam();
  Cluster cluster(p);
  cluster.run([&](Communicator& comm) {
    comm.allreduce_scalar(1.0, ScalarOp::kMax);
    const auto& ar = comm.stats().of(CollectiveKind::kAllReduce);
    EXPECT_EQ(ar.calls, 1u);
    EXPECT_EQ(ar.bytes, sizeof(double));
    EXPECT_DOUBLE_EQ(ar.modeled_seconds,
                     CostModel().allreduce_time(p, sizeof(double)));
    EXPECT_EQ(comm.stats().of(CollectiveKind::kAllGatherV).calls, 0u);
    EXPECT_EQ(comm.stats().total_calls(), 1u);
    EXPECT_DOUBLE_EQ(comm.sim_now(), ar.modeled_seconds);
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
    const std::vector<std::byte> local(4, std::byte{0xAB});
    const auto out = gather_values(comm, local, /*charge_cost=*/false);
    ASSERT_EQ(out.size(), static_cast<std::size_t>(p));
    for (const auto& slot : out) EXPECT_EQ(slot, local);
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
        comm.allreduce_scalar(0.0, ScalarOp::kSum);
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
        comm.allreduce_scalar(0.0, ScalarOp::kSum);
        comm.allreduce_scalar(0.0, ScalarOp::kSum);
      }),
      std::runtime_error);
}

TEST(Cluster, ReusableForMultipleRuns) {
  Cluster cluster(3);
  for (int iteration = 0; iteration < 3; ++iteration) {
    cluster.run([&](Communicator& comm) {
      EXPECT_DOUBLE_EQ(comm.allreduce_scalar(1.0, ScalarOp::kSum), 3.0);
    });
  }
}

TEST(Cluster, ManySmallCollectivesStress) {
  Cluster cluster(4);
  cluster.run([](Communicator& comm) {
    for (int i = 0; i < 500; ++i) {
      const double mine = comm.rank();
      EXPECT_DOUBLE_EQ(comm.allreduce_scalar(mine, ScalarOp::kSum),
                       6.0);  // 0+1+2+3
      const std::vector<float> v(8, static_cast<float>(comm.rank()));
      const auto out = gather_values(comm, v);
      EXPECT_FLOAT_EQ(out[3][7], 3.0f);
    }
  });
}

}  // namespace
}  // namespace dynkge::comm
