// Randomized stress tests for the collectives: arbitrary payload sizes
// (including empty), mixed operation sequences, and reference-checked
// results. Guards the exact invariants the trainer depends on.
#include <gtest/gtest.h>

#include <vector>

#include "comm/communicator.hpp"
#include "util/rng.hpp"

namespace dynkge::comm {
namespace {

using util::Rng;

class CommFuzzP : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, CommFuzzP, ::testing::Values(2, 3, 5, 8));

TEST_P(CommFuzzP, AllReduceRandomSizes) {
  const int ranks = GetParam();
  Cluster cluster(ranks);
  for (int round = 0; round < 10; ++round) {
    Rng size_rng(util::derive_seed(101, round));
    const std::size_t elems = 1 + size_rng.next_below(2000);
    cluster.run([&](Communicator& comm) {
      Rng rng(util::derive_seed(7, comm.rank(), round));
      std::vector<float> in(elems);
      for (auto& v : in) v = static_cast<float>(rng.next_below(100));
      std::vector<float> out(elems);
      comm.allreduce_sum(in, out);

      // Reference: regenerate every rank's payload deterministically.
      for (std::size_t i = 0; i < std::min<std::size_t>(elems, 16); ++i) {
        float expected = 0.0f;
        for (int r = 0; r < ranks; ++r) {
          Rng replay(util::derive_seed(7, r, round));
          std::vector<float> payload(elems);
          for (auto& v : payload) {
            v = static_cast<float>(replay.next_below(100));
          }
          expected += payload[i];
        }
        EXPECT_FLOAT_EQ(out[i], expected);
      }
    });
  }
}

TEST_P(CommFuzzP, AllGatherVRandomUnevenSizes) {
  const int ranks = GetParam();
  Cluster cluster(ranks);
  for (int round = 0; round < 10; ++round) {
    cluster.run([&](Communicator& comm) {
      Rng rng(util::derive_seed(13, comm.rank(), round));
      const std::size_t mine = rng.next_below(64);  // may be zero
      std::vector<std::uint32_t> local(mine);
      for (std::size_t i = 0; i < mine; ++i) {
        local[i] = static_cast<std::uint32_t>(comm.rank() * 1000 + i);
      }
      std::vector<std::uint32_t> out;
      std::vector<std::size_t> counts;
      comm.allgatherv(std::span<const std::uint32_t>(local), out, counts);

      // Every rank's segment carries its rank signature in order.
      std::size_t offset = 0;
      for (int r = 0; r < ranks; ++r) {
        for (std::size_t i = 0; i < counts[r]; ++i) {
          EXPECT_EQ(out[offset + i],
                    static_cast<std::uint32_t>(r * 1000 + i));
        }
        offset += counts[r];
      }
      EXPECT_EQ(offset, out.size());
    });
  }
}

TEST_P(CommFuzzP, MixedOperationSequence) {
  // Interleave every collective repeatedly; any slot-reuse bug shows up
  // as cross-talk between operations.
  const int ranks = GetParam();
  Cluster cluster(ranks);
  cluster.run([&](Communicator& comm) {
    Rng rng(util::derive_seed(17, comm.rank()));
    for (int round = 0; round < 30; ++round) {
      // scalar reduction
      EXPECT_DOUBLE_EQ(
          comm.allreduce_scalar(1.0, ScalarOp::kSum),
          static_cast<double>(ranks));
      // allreduce
      std::vector<float> v(5, 2.0f);
      comm.allreduce_sum_inplace(v);
      EXPECT_FLOAT_EQ(v[4], 2.0f * ranks);
      // allgatherv
      std::vector<int> mine{comm.rank()};
      std::vector<int> gathered;
      std::vector<std::size_t> counts;
      comm.allgatherv(std::span<const int>(mine), gathered, counts);
      ASSERT_EQ(gathered.size(), static_cast<std::size_t>(ranks));
      for (int r = 0; r < ranks; ++r) EXPECT_EQ(gathered[r], r);
      // barrier
      comm.barrier();
    }
  });
}

TEST_P(CommFuzzP, SimClockIsMonotone) {
  const int ranks = GetParam();
  Cluster cluster(ranks);
  cluster.run([&](Communicator& comm) {
    // Per-rank stream for compute jitter; shared stream for payload sizes
    // (all ranks must agree on the allreduce length).
    Rng jitter(util::derive_seed(23, comm.rank()));
    Rng sizes(util::derive_seed(29));
    double last = comm.sim_now();
    for (int round = 0; round < 50; ++round) {
      comm.sim_add_compute(jitter.next_double() * 1e-3);
      std::vector<float> v(1 + sizes.next_below(100), 1.0f);
      comm.allreduce_sum_inplace(v);
      EXPECT_GE(comm.sim_now(), last);
      last = comm.sim_now();
    }
  });
}

TEST_P(CommFuzzP, MismatchedAllReduceSizesAreRejected) {
  // Ranks disagreeing on the payload length is a programming error the
  // communicator must surface, not silently corrupt.
  const int ranks = GetParam();
  Cluster cluster(ranks);
  EXPECT_THROW(cluster.run([&](Communicator& comm) {
                 std::vector<float> v(comm.rank() + 1, 1.0f);
                 comm.allreduce_sum_inplace(v);
               }),
               std::invalid_argument);
}

TEST_P(CommFuzzP, StatsBytesMatchPayloads) {
  const int ranks = GetParam();
  Cluster cluster(ranks);
  cluster.run([&](Communicator& comm) {
    std::vector<float> v(100, 1.0f);
    comm.allreduce_sum_inplace(v);
    std::vector<std::byte> raw(64, std::byte{7});
    std::vector<std::byte> out;
    std::vector<std::size_t> counts;
    comm.allgatherv_bytes(raw, out, counts);
    EXPECT_EQ(comm.stats().of(CollectiveKind::kAllReduce).bytes,
              100 * sizeof(float));
    EXPECT_EQ(comm.stats().of(CollectiveKind::kAllGatherV).bytes, 64u);
  });
}

}  // namespace
}  // namespace dynkge::comm
