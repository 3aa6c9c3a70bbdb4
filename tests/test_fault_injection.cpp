// Fault-injection matrix over the simulated cluster: every fault kind ×
// cluster size must terminate (no deadlock), propagate RankFailedError
// with the failing rank, and — for recovered transients — leave results
// identical to a clean run.
#include "comm/fault.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "comm/communicator.hpp"
#include "core/grad_exchange.hpp"

namespace dynkge::comm {
namespace {

/// An empty, uncharged gather: a pure synchronization point.
void sync(Communicator& comm) {
  comm.allgatherv_slots({}, [](Communicator::Slots) {},
                        /*charge_cost=*/false);
}

/// A rank program that runs `steps` scalar allreduces with an empty gather
/// sprinkled in (collectives #4, #12, #20, ...), returning the final
/// reduced value (identical on every rank of a clean run).
double collective_loop(Communicator& comm, int steps) {
  double value = static_cast<double>(comm.rank() + 1);
  for (int step = 0; step < steps; ++step) {
    value = comm.allreduce_scalar(value, ScalarOp::kSum) /
            static_cast<double>(comm.size());
    if (step % 7 == 3) sync(comm);
  }
  return value;
}

class FaultMatrixTest : public ::testing::TestWithParam<int> {};

TEST_P(FaultMatrixTest, CrashPropagatesRankFailedWithoutDeadlock) {
  const int num_ranks = GetParam();
  const int victim = num_ranks - 1;
  FaultInjector injector(
      {FaultEvent{FaultKind::kRankCrash, victim, /*collective_index=*/9}});
  Cluster cluster(num_ranks);
  cluster.set_fault_injector(&injector);
  try {
    cluster.run([&](Communicator& comm) { collective_loop(comm, 40); });
    FAIL() << "crash did not propagate";
  } catch (const RankFailedError& error) {
    EXPECT_EQ(error.rank(), victim);
    EXPECT_NE(std::string(error.what()).find("rank " +
                                             std::to_string(victim)),
              std::string::npos);
  }
  EXPECT_EQ(injector.counters().crashes, 1u);
}

TEST_P(FaultMatrixTest, TransientIsRetriedAndResultsUnchanged) {
  const int num_ranks = GetParam();

  std::vector<double> clean(num_ranks, 0.0);
  Cluster reference(num_ranks);
  reference.run([&](Communicator& comm) {
    clean[comm.rank()] = collective_loop(comm, 40);
  });

  FaultInjector injector({FaultEvent{FaultKind::kTransient, /*rank=*/0,
                                     /*collective_index=*/12,
                                     /*failures=*/2}});
  std::vector<double> faulted(num_ranks, 0.0);
  Cluster cluster(num_ranks);
  cluster.set_fault_injector(&injector);
  cluster.run([&](Communicator& comm) {
    faulted[comm.rank()] = collective_loop(comm, 40);
  });

  EXPECT_EQ(clean, faulted);  // bit-identical despite the injected fault
  const FaultCounters counters = injector.counters();
  EXPECT_EQ(counters.transients, 1u);
  EXPECT_EQ(counters.retries, 2u);
  EXPECT_GT(counters.backoff_seconds, 0.0);
  EXPECT_EQ(counters.crashes, 0u);
  EXPECT_EQ(counters.exhausted, 0u);
}

TEST_P(FaultMatrixTest, StragglerDelaysEveryRanksClock) {
  const int num_ranks = GetParam();
  const double delay = 0.25;

  std::vector<double> clean_clock(num_ranks, 0.0);
  Cluster reference(num_ranks);
  reference.run([&](Communicator& comm) {
    collective_loop(comm, 40);
    clean_clock[comm.rank()] = comm.sim_now();
  });

  FaultInjector injector({FaultEvent{FaultKind::kStraggler, /*rank=*/0,
                                     /*collective_index=*/5, /*failures=*/1,
                                     delay}});
  std::vector<double> slow_clock(num_ranks, 0.0);
  Cluster cluster(num_ranks);
  cluster.set_fault_injector(&injector);
  cluster.run([&](Communicator& comm) {
    collective_loop(comm, 40);
    slow_clock[comm.rank()] = comm.sim_now();
  });

  EXPECT_EQ(injector.counters().stragglers, 1u);
  // The clock alignment at the next collective spreads the stall to every
  // rank — exactly what a straggler does to a synchronous cluster.
  for (int r = 0; r < num_ranks; ++r) {
    EXPECT_GE(slow_clock[r], clean_clock[r] + delay - 1e-12)
        << "rank " << r << " did not feel the straggler";
  }
}

TEST_P(FaultMatrixTest, ExhaustedRetriesEscalateToRankFailed) {
  const int num_ranks = GetParam();
  RetryPolicy policy;
  policy.max_attempts = 3;
  FaultInjector injector({FaultEvent{FaultKind::kTransient, /*rank=*/1,
                                     /*collective_index=*/4,
                                     /*failures=*/3}},
                         policy);
  Cluster cluster(num_ranks);
  cluster.set_fault_injector(&injector);
  EXPECT_THROW(
      cluster.run([&](Communicator& comm) { collective_loop(comm, 40); }),
      RankFailedError);
  EXPECT_EQ(injector.counters().exhausted, 1u);
}

INSTANTIATE_TEST_SUITE_P(Clusters, FaultMatrixTest, ::testing::Values(2, 4));

TEST(FaultInjector, ParseSpecRoundTrip) {
  const auto events = FaultInjector::parse_spec(
      "crash@1@40,transient@0@12@2,straggler@2@30@0.5");
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, FaultKind::kRankCrash);
  EXPECT_EQ(events[0].rank, 1);
  EXPECT_EQ(events[0].collective_index, 40u);
  EXPECT_EQ(events[1].kind, FaultKind::kTransient);
  EXPECT_EQ(events[1].failures, 2);
  EXPECT_EQ(events[2].kind, FaultKind::kStraggler);
  EXPECT_DOUBLE_EQ(events[2].delay_seconds, 0.5);
}

TEST(FaultInjector, ParseSpecRejectsMalformedInput) {
  EXPECT_THROW(FaultInjector::parse_spec("explode@0@1"),
               std::invalid_argument);
  EXPECT_THROW(FaultInjector::parse_spec("crash@0"), std::invalid_argument);
  EXPECT_THROW(FaultInjector::parse_spec("crash@x@1"),
               std::invalid_argument);
  // Failure counts below 1 and straggler delays that are negative or not
  // finite are rejected, naming the flag (a negative count used to wrap
  // the retry counter).
  for (const char* spec :
       {"transient@0@3@-3", "transient@0@3@0", "corrupt@1@e0@0",
        "corrupt@1@2@-1", "straggler@0@3@-0.5", "straggler@0@3@nan",
        "straggler@0@3@inf", "straggler@0@3@-inf"}) {
    SCOPED_TRACE(spec);
    try {
      FaultInjector::parse_spec(spec);
      FAIL() << "accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("--fault-spec"),
                std::string::npos);
    }
  }
  EXPECT_EQ(FaultInjector::parse_spec("straggler@0@3@0").size(), 1u);
  // An empty spec is a valid empty schedule (the CLI's default).
  EXPECT_TRUE(FaultInjector::parse_spec("").empty());
}

// ---- wire integrity & deadline watchdog ------------------------------

/// A rank program exercising the payload path: float gathers summed in
/// rank order, whose result feeds the next step.
std::vector<float> payload_loop(Communicator& comm, int steps) {
  std::vector<float> data(8, static_cast<float>(comm.rank() + 1));
  for (int step = 0; step < steps; ++step) {
    std::vector<float> sum(data.size(), 0.0f);
    comm.allgatherv_slots(
        std::as_bytes(std::span<const float>(data)),
        [&](Communicator::Slots slots) {
          for (const std::span<const std::byte> slot : slots) {
            for (std::size_t i = 0; i < sum.size(); ++i) {
              float v = 0.0f;
              std::memcpy(&v, slot.data() + i * sizeof(v), sizeof(v));
              sum[i] += v;
            }
          }
        });
    data = sum;
    for (float& v : data) v /= static_cast<float>(comm.size() + 1);
  }
  return data;
}

TEST_P(FaultMatrixTest, CorruptPayloadIsRetransmittedAndResultsUnchanged) {
  const int num_ranks = GetParam();

  std::vector<std::vector<float>> clean(num_ranks);
  Cluster reference(num_ranks);
  reference.run([&](Communicator& comm) {
    clean[comm.rank()] = payload_loop(comm, 20);
  });

  FaultInjector injector({FaultEvent{FaultKind::kCorrupt, /*rank=*/0,
                                     /*collective_index=*/6,
                                     /*failures=*/2}});
  std::vector<std::vector<float>> faulted(num_ranks);
  Cluster cluster(num_ranks);
  cluster.set_fault_injector(&injector);
  cluster.run([&](Communicator& comm) {
    faulted[comm.rank()] = payload_loop(comm, 20);
  });

  EXPECT_EQ(clean, faulted);  // bit-identical despite the corruption
  const FaultCounters counters = injector.counters();
  EXPECT_EQ(counters.corrupted_payloads, 2u);
  // Zero silent corruption: every corrupted publish was caught.
  EXPECT_EQ(counters.corruptions_detected, counters.corrupted_payloads);
  EXPECT_EQ(counters.retransmits, 2u);
  EXPECT_EQ(counters.exhausted, 0u);
}

TEST_P(FaultMatrixTest, CorruptScalarCollectiveIsCoveredByChecksums) {
  // allreduce_scalar publishes its double as an 8-byte payload, so the
  // same checksum covers it. Collective #11 is step 10's reduction.
  const int num_ranks = GetParam();

  std::vector<double> clean(num_ranks, 0.0);
  Cluster reference(num_ranks);
  reference.run([&](Communicator& comm) {
    clean[comm.rank()] = collective_loop(comm, 40);
  });

  FaultInjector injector({FaultEvent{FaultKind::kCorrupt, /*rank=*/1,
                                     /*collective_index=*/11,
                                     /*failures=*/1}});
  std::vector<double> faulted(num_ranks, 0.0);
  Cluster cluster(num_ranks);
  cluster.set_fault_injector(&injector);
  cluster.run([&](Communicator& comm) {
    faulted[comm.rank()] = collective_loop(comm, 40);
  });

  EXPECT_EQ(clean, faulted);
  const FaultCounters counters = injector.counters();
  EXPECT_EQ(counters.corrupted_payloads, 1u);
  EXPECT_EQ(counters.corruptions_detected, 1u);
  EXPECT_EQ(counters.retransmits, 1u);
}

/// A gather in which only rank 0 publishes (one byte); every other slot
/// is empty. Returns the slot sizes this rank read.
std::vector<std::size_t> empty_gather(Communicator& comm) {
  const std::byte token{7};
  std::vector<std::size_t> sizes;
  comm.allgatherv_slots(
      std::span<const std::byte>(&token, comm.rank() == 0 ? 1 : 0),
      [&](Communicator::Slots slots) {
        for (const auto slot : slots) sizes.push_back(slot.size());
      });
  return sizes;
}

TEST_P(FaultMatrixTest, CorruptEmptyPayloadIsRetransmittedAndReadEmpty) {
  // A corrupted empty payload is published as one flipped byte, so the
  // checksum catches it; the retransmit publishes nothing again, and
  // every rank reads the corrupter's slot back empty.
  const int num_ranks = GetParam();
  FaultInjector injector({FaultEvent{FaultKind::kCorrupt, /*rank=*/1,
                                     /*collective_index=*/0,
                                     /*failures=*/1}});
  Cluster cluster(num_ranks);
  cluster.set_fault_injector(&injector);
  std::vector<std::vector<std::size_t>> read(num_ranks);
  cluster.run([&](Communicator& comm) {
    read[comm.rank()] = empty_gather(comm);
  });

  std::vector<std::size_t> expected(num_ranks, 0);
  expected[0] = 1;
  for (int r = 0; r < num_ranks; ++r) EXPECT_EQ(read[r], expected);
  const FaultCounters counters = injector.counters();
  EXPECT_EQ(counters.corrupted_payloads, 1u);
  EXPECT_EQ(counters.corruptions_detected, 1u);
  EXPECT_EQ(counters.retransmits, 1u);
  EXPECT_EQ(counters.exhausted, 0u);
}

TEST_P(FaultMatrixTest, CorruptEmptyPayloadEscalatesPastTheBudget) {
  const int num_ranks = GetParam();
  RetryPolicy policy;
  policy.max_attempts = 2;
  FaultInjector injector({FaultEvent{FaultKind::kCorrupt, /*rank=*/1,
                                     /*collective_index=*/0,
                                     /*failures=*/2}},
                         policy);
  Cluster cluster(num_ranks);
  cluster.set_fault_injector(&injector);
  try {
    cluster.run([&](Communicator& comm) { empty_gather(comm); });
    FAIL() << "persistent corruption did not escalate";
  } catch (const RankFailedError& error) {
    EXPECT_EQ(error.ranks(), std::vector<int>{1});
    EXPECT_NE(std::string(error.what()).find("corrupted payload"),
              std::string::npos);
  }
  const FaultCounters counters = injector.counters();
  EXPECT_EQ(counters.corrupted_payloads, 2u);
  EXPECT_EQ(counters.corruptions_detected, 2u);
  EXPECT_EQ(counters.retransmits, 1u);
  EXPECT_EQ(counters.exhausted, 1u);
}

TEST_P(FaultMatrixTest, CorruptEscalatesToRankFailedWhenBudgetExhausted) {
  const int num_ranks = GetParam();
  RetryPolicy policy;
  policy.max_attempts = 3;
  FaultInjector injector({FaultEvent{FaultKind::kCorrupt, /*rank=*/1,
                                     /*collective_index=*/4,
                                     /*failures=*/5}},
                         policy);
  Cluster cluster(num_ranks);
  cluster.set_fault_injector(&injector);
  try {
    cluster.run([&](Communicator& comm) { payload_loop(comm, 20); });
    FAIL() << "persistent corruption did not escalate";
  } catch (const RankFailedError& error) {
    EXPECT_EQ(error.rank(), 1);
    EXPECT_NE(std::string(error.what()).find("corrupted payload"),
              std::string::npos);
  }
  const FaultCounters counters = injector.counters();
  EXPECT_EQ(counters.corrupted_payloads, 3u);  // one per attempt
  EXPECT_EQ(counters.corruptions_detected, counters.corrupted_payloads);
  EXPECT_EQ(counters.exhausted, 1u);
}

/// A rank program running `steps` GradExchange merges over `transport`
/// (two collectives each: entity rows, then relation rows). Returns every
/// merged row as (id, value bits), step by step.
std::vector<std::uint32_t> exchange_loop(Communicator& comm,
                                         core::Transport transport,
                                         int steps) {
  constexpr std::int32_t kEntities = 64;
  constexpr std::int32_t kRelations = 8;
  constexpr std::int32_t kWidth = 6;
  core::GradExchange exchange(comm, core::StrategyConfig{}, kEntities,
                              kWidth, kRelations, kWidth);
  core::ExchangePlan plan;
  plan.transport = transport;
  util::Rng rng(3);
  kge::ModelGrads merged(kWidth, kWidth);
  std::vector<std::uint32_t> out;
  for (int step = 0; step < steps; ++step) {
    kge::ModelGrads local(kWidth, kWidth);
    for (const std::int32_t id : {comm.rank(), comm.rank() + 1, 10 + step}) {
      auto row = local.entity.accumulate(id);
      for (std::int32_t i = 0; i < kWidth; ++i) {
        row[i] = 0.1f * static_cast<float>((comm.rank() + 1) * (i + 1)) -
                 0.3f * static_cast<float>(step);
      }
    }
    local.relation.accumulate(step % kRelations)[0] =
        static_cast<float>(comm.rank()) + 0.5f;
    exchange.exchange(local, merged, plan, rng);
    for (const kge::SparseGrad* grad : {&merged.entity, &merged.relation}) {
      for (const auto& slot : grad->sorted_slots()) {
        out.push_back(static_cast<std::uint32_t>(slot.id));
        for (const float v : grad->row_at(slot.offset)) {
          out.push_back(std::bit_cast<std::uint32_t>(v));
        }
      }
    }
  }
  return out;
}

TEST_P(FaultMatrixTest, CorruptExchangeIsRetransmittedAndMergeUnchanged) {
  // The exchange decodes straight from the published slots, so the
  // checksum pass must run before any decode: a corrupted gradient
  // payload is retransmitted and the merged rows stay bit-identical.
  const int num_ranks = GetParam();
  for (const core::Transport transport :
       {core::Transport::kAllGather, core::Transport::kAllReduce}) {
    SCOPED_TRACE(core::to_string(transport));
    std::vector<std::vector<std::uint32_t>> clean(num_ranks);
    Cluster reference(num_ranks);
    reference.run([&](Communicator& comm) {
      clean[comm.rank()] = exchange_loop(comm, transport, 4);
    });

    // Collective #2 is the second step's entity exchange.
    FaultInjector injector({FaultEvent{FaultKind::kCorrupt, /*rank=*/1,
                                       /*collective_index=*/2,
                                       /*failures=*/2}});
    std::vector<std::vector<std::uint32_t>> faulted(num_ranks);
    Cluster cluster(num_ranks);
    cluster.set_fault_injector(&injector);
    cluster.run([&](Communicator& comm) {
      faulted[comm.rank()] = exchange_loop(comm, transport, 4);
    });

    EXPECT_EQ(clean, faulted);
    for (int r = 1; r < num_ranks; ++r) EXPECT_EQ(faulted[r], faulted[0]);
    const FaultCounters counters = injector.counters();
    EXPECT_EQ(counters.corrupted_payloads, 2u);
    EXPECT_EQ(counters.corruptions_detected, counters.corrupted_payloads);
    EXPECT_EQ(counters.retransmits, 2u);
    EXPECT_EQ(counters.exhausted, 0u);
  }
}

TEST_P(FaultMatrixTest, CorruptExchangeEscalatesWhenBudgetExhausted) {
  // Past the retry budget the corrupter dies and the others unwind; no
  // rank may free a payload a sibling is still verifying or decoding
  // (the sanitizer jobs run this test).
  const int num_ranks = GetParam();
  for (const core::Transport transport :
       {core::Transport::kAllGather, core::Transport::kAllReduce}) {
    SCOPED_TRACE(core::to_string(transport));
    RetryPolicy policy;
    policy.max_attempts = 3;
    FaultInjector injector({FaultEvent{FaultKind::kCorrupt, /*rank=*/1,
                                       /*collective_index=*/3,
                                       /*failures=*/5}},
                           policy);
    Cluster cluster(num_ranks);
    cluster.set_fault_injector(&injector);
    try {
      cluster.run(
          [&](Communicator& comm) { exchange_loop(comm, transport, 4); });
      FAIL() << "persistent corruption did not escalate";
    } catch (const RankFailedError& error) {
      EXPECT_EQ(error.rank(), 1);
      EXPECT_NE(std::string(error.what()).find("corrupted payload"),
                std::string::npos);
    }
    const FaultCounters counters = injector.counters();
    EXPECT_EQ(counters.corrupted_payloads, 3u);
    EXPECT_EQ(counters.corruptions_detected, counters.corrupted_payloads);
    EXPECT_EQ(counters.exhausted, 1u);
  }
}

TEST_P(FaultMatrixTest, HangTripsWatchdogIntoRankFailed) {
  const int num_ranks = GetParam();
  FaultInjector injector({FaultEvent{FaultKind::kHang, /*rank=*/0,
                                     /*collective_index=*/9}},
                         RetryPolicy{},
                         /*collective_deadline=*/2.0);
  Cluster cluster(num_ranks);
  cluster.set_fault_injector(&injector);
  try {
    cluster.run([&](Communicator& comm) { collective_loop(comm, 40); });
    FAIL() << "hang did not trip the watchdog";
  } catch (const RankFailedError& error) {
    EXPECT_EQ(error.rank(), 0);
    EXPECT_NE(std::string(error.what()).find("watchdog"),
              std::string::npos);
  }
  EXPECT_EQ(injector.counters().watchdog_trips, 1u);
}

TEST(FaultInjector, StragglerPastDeadlineTripsWatchdog) {
  FaultInjector injector({FaultEvent{FaultKind::kStraggler, /*rank=*/1,
                                     /*collective_index=*/5, /*failures=*/1,
                                     /*delay_seconds=*/3.0}},
                         RetryPolicy{},
                         /*collective_deadline=*/1.0);
  Cluster cluster(2);
  cluster.set_fault_injector(&injector);
  EXPECT_THROW(
      cluster.run([&](Communicator& comm) { collective_loop(comm, 40); }),
      RankFailedError);
  EXPECT_EQ(injector.counters().watchdog_trips, 1u);
  EXPECT_EQ(injector.counters().stragglers, 0u);  // escalated, not applied
}

TEST(FaultInjector, StragglerWithinDeadlineIsNotEscalated) {
  FaultInjector injector({FaultEvent{FaultKind::kStraggler, /*rank=*/1,
                                     /*collective_index=*/5, /*failures=*/1,
                                     /*delay_seconds=*/0.5}},
                         RetryPolicy{},
                         /*collective_deadline=*/1.0);
  Cluster cluster(2);
  cluster.set_fault_injector(&injector);
  cluster.run([&](Communicator& comm) { collective_loop(comm, 40); });
  EXPECT_EQ(injector.counters().stragglers, 1u);
  EXPECT_EQ(injector.counters().watchdog_trips, 0u);
}

TEST(FaultInjector, HangScheduleRequiresDeadlineNamedByFlag) {
  // A hang with no watchdog would be undetectable; the injector rejects
  // the schedule at construction, naming the CLI flag.
  try {
    FaultInjector injector(
        {FaultEvent{FaultKind::kHang, /*rank=*/0, /*collective_index=*/1}});
    FAIL() << "hang without a deadline was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("--collective-deadline"),
              std::string::npos);
  }
}

TEST(FaultInjector, NegativeDeadlineIsRejectedNamedByFlag) {
  try {
    FaultInjector injector(std::vector<FaultEvent>{}, RetryPolicy{},
                           /*collective_deadline=*/-1.0);
    FAIL() << "negative deadline was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("--collective-deadline"),
              std::string::npos);
  }
}

TEST(FaultInjector, ParseSpecCorruptAndHangRoundTrip) {
  const auto events =
      FaultInjector::parse_spec("corrupt@1@40@3,hang@0@e2,corrupt@2@e1");
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, FaultKind::kCorrupt);
  EXPECT_EQ(events[0].rank, 1);
  EXPECT_EQ(events[0].collective_index, 40u);
  EXPECT_EQ(events[0].failures, 3);
  EXPECT_EQ(events[1].kind, FaultKind::kHang);
  EXPECT_EQ(events[1].epoch, 2);
  EXPECT_EQ(events[2].kind, FaultKind::kCorrupt);
  EXPECT_EQ(events[2].epoch, 1);
  EXPECT_EQ(events[2].failures, 1);  // default
}

TEST(FaultInjector, ParseSpecRejectsMalformedCorruptAndHang) {
  // hang takes no trailing parameter.
  EXPECT_THROW(FaultInjector::parse_spec("hang@0@1@2"),
               std::invalid_argument);
  EXPECT_THROW(FaultInjector::parse_spec("corrupt@0"),
               std::invalid_argument);
  EXPECT_THROW(FaultInjector::parse_spec("corrupt@0@1@x"),
               std::invalid_argument);
}

TEST(FaultInjector, NoFaultsMeansNoOverhead) {
  FaultInjector injector(std::vector<FaultEvent>{});
  Cluster cluster(2);
  cluster.set_fault_injector(&injector);
  std::vector<double> out(2, 0.0);
  cluster.run([&](Communicator& comm) {
    out[comm.rank()] = collective_loop(comm, 10);
  });
  EXPECT_EQ(out[0], out[1]);
  const FaultCounters counters = injector.counters();
  EXPECT_EQ(counters.crashes + counters.transients + counters.stragglers,
            0u);
}

}  // namespace
}  // namespace dynkge::comm
