// Randomized stress tests for the collectives: arbitrary payload sizes
// (including empty), mixed operation sequences, and reference-checked
// results. Guards the exact invariants the trainer depends on.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "comm/communicator.hpp"
#include "util/rng.hpp"

namespace dynkge::comm {
namespace {

using util::Rng;

class CommFuzzP : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, CommFuzzP, ::testing::Values(2, 3, 5, 8));

/// Element i of rank r's slot, read in place.
template <typename T = std::uint32_t>
T element(Communicator::Slots slots, int r, std::size_t i) {
  T value{};
  std::memcpy(&value, slots[r].data() + i * sizeof(value), sizeof(value));
  return value;
}

TEST_P(CommFuzzP, AllReduceRandomSizes) {
  // The dense all-reduce as the gradient exchange realizes it (an
  // uncharged gather summed in rank order, charged as one all-reduce of
  // the dense bytes), at lengths drawn per round and agreed by all ranks.
  const int ranks = GetParam();
  Cluster cluster(ranks);
  for (int round = 0; round < 10; ++round) {
    Rng size_rng(util::derive_seed(101, round));
    const std::size_t elems = 1 + size_rng.next_below(2000);
    cluster.run([&](Communicator& comm) {
      Rng rng(util::derive_seed(7, comm.rank(), round));
      std::vector<float> in(elems);
      for (auto& v : in) v = static_cast<float>(rng.next_below(100));
      std::vector<float> out(elems, 0.0f);
      comm.allgatherv_slots(
          std::as_bytes(std::span<const float>(in)),
          [&](Communicator::Slots slots) {
            for (int r = 0; r < ranks; ++r) {
              ASSERT_EQ(slots[r].size(), elems * sizeof(float));
              for (std::size_t i = 0; i < elems; ++i) {
                out[i] += element<float>(slots, r, i);
              }
            }
          },
          /*charge_cost=*/false);
      const std::size_t bytes = elems * sizeof(float);
      comm.charge(CollectiveKind::kAllReduce, bytes, bytes);

      // Reference: regenerate every rank's payload deterministically.
      std::vector<float> expected(elems, 0.0f);
      for (int r = 0; r < ranks; ++r) {
        Rng replay(util::derive_seed(7, r, round));
        for (auto& v : expected) {
          v += static_cast<float>(replay.next_below(100));
        }
      }
      for (std::size_t i = 0; i < elems; ++i) {
        EXPECT_FLOAT_EQ(out[i], expected[i]);
      }
      EXPECT_EQ(comm.stats().of(CollectiveKind::kAllReduce).bytes, bytes);
      EXPECT_EQ(comm.stats().of(CollectiveKind::kAllGatherV).calls, 0u);
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
      comm.allgatherv_slots(
          std::as_bytes(std::span<const std::uint32_t>(local)),
          [&](Communicator::Slots slots) {
            // Every rank's slot carries its rank signature in order, at the
            // length that rank drew.
            ASSERT_EQ(slots.size(), static_cast<std::size_t>(ranks));
            for (int r = 0; r < ranks; ++r) {
              Rng replay(util::derive_seed(13, r, round));
              const std::size_t count = replay.next_below(64);
              ASSERT_EQ(slots[r].size(), count * sizeof(std::uint32_t));
              for (std::size_t i = 0; i < count; ++i) {
                EXPECT_EQ(element(slots, r, i),
                          static_cast<std::uint32_t>(r * 1000 + i));
              }
            }
          });
    });
  }
}

TEST_P(CommFuzzP, MixedOperationSequence) {
  // Interleave every collective repeatedly; any slot-reuse bug shows up
  // as cross-talk between operations.
  const int ranks = GetParam();
  Cluster cluster(ranks);
  cluster.run([&](Communicator& comm) {
    for (int round = 0; round < 30; ++round) {
      // scalar reduction
      EXPECT_DOUBLE_EQ(
          comm.allreduce_scalar(1.0, ScalarOp::kSum),
          static_cast<double>(ranks));
      EXPECT_DOUBLE_EQ(comm.allreduce_scalar(comm.rank(), ScalarOp::kMax),
                       static_cast<double>(ranks - 1));
      // allgatherv
      const std::uint32_t mine = static_cast<std::uint32_t>(comm.rank());
      comm.allgatherv_slots(
          std::as_bytes(std::span<const std::uint32_t>(&mine, 1)),
          [&](Communicator::Slots slots) {
            for (int r = 0; r < ranks; ++r) {
              EXPECT_EQ(element(slots, r, 0), static_cast<std::uint32_t>(r));
            }
          });
      // empty, uncharged gather (a pure synchronization point)
      comm.allgatherv_slots(
          {},
          [&](Communicator::Slots slots) {
            for (const auto slot : slots) EXPECT_TRUE(slot.empty());
          },
          /*charge_cost=*/false);
    }
  });
}

TEST_P(CommFuzzP, SimClockIsMonotone) {
  const int ranks = GetParam();
  Cluster cluster(ranks);
  cluster.run([&](Communicator& comm) {
    // Per-rank streams for compute jitter and payload sizes.
    Rng jitter(util::derive_seed(23, comm.rank()));
    Rng sizes(util::derive_seed(29, comm.rank()));
    double last = comm.sim_now();
    for (int round = 0; round < 50; ++round) {
      comm.sim_add_compute(jitter.next_double() * 1e-3);
      const std::vector<std::byte> payload(sizes.next_below(100));
      comm.allgatherv_slots(payload, [](Communicator::Slots) {});
      EXPECT_GE(comm.sim_now(), last);
      last = comm.sim_now();
      comm.allreduce_scalar(last, ScalarOp::kMax);
      EXPECT_GE(comm.sim_now(), last);
      last = comm.sim_now();
    }
  });
}

TEST_P(CommFuzzP, MismatchedAllReduceSizesAreRejected) {
  // Ranks disagreeing on the payload length is a programming error the
  // communicator must surface, not silently corrupt: odd ranks publish a
  // 4-byte gather at the collective where even ranks reduce a double.
  const int ranks = GetParam();
  Cluster cluster(ranks);
  EXPECT_THROW(cluster.run([&](Communicator& comm) {
                 if (comm.rank() % 2 == 0) {
                   comm.allreduce_scalar(1.0, ScalarOp::kSum);
                   return;
                 }
                 const std::uint32_t word = 1;
                 comm.allgatherv_slots(
                     std::as_bytes(std::span<const std::uint32_t>(&word, 1)),
                     [](Communicator::Slots) {});
               }),
               std::logic_error);
}

TEST_P(CommFuzzP, StatsBytesMatchPayloads) {
  const int ranks = GetParam();
  Cluster cluster(ranks);
  cluster.run([&](Communicator& comm) {
    comm.allreduce_scalar(1.0, ScalarOp::kSum);
    const std::vector<std::byte> raw(64, std::byte{7});
    comm.allgatherv_slots(raw, [](Communicator::Slots) {});
    EXPECT_EQ(comm.stats().of(CollectiveKind::kAllReduce).bytes,
              sizeof(double));
    EXPECT_EQ(comm.stats().of(CollectiveKind::kAllGatherV).bytes, 64u);
  });
}

}  // namespace
}  // namespace dynkge::comm
