// Elastic training determinism: a run that loses a rank mid-flight and
// shrinks to the survivors must end byte-identical to a fresh run at the
// smaller world size resumed from the same snapshot — for every paper
// strategy, including relation partition (whose owner-only relation rows
// must be re-gathered and re-partitioned over the survivors).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <span>
#include <string>

#include "comm/fault.hpp"
#include "core/trainer.hpp"
#include "golden_digest.hpp"
#include "kge/synthetic.hpp"

namespace dynkge::core {
namespace {

const kge::Dataset& tiny_dataset() {
  static const kge::Dataset dataset = kge::generate_synthetic([] {
    kge::SyntheticSpec spec;
    spec.num_entities = 300;
    spec.num_relations = 24;
    spec.num_triples = 4000;
    spec.num_latent_types = 6;
    spec.seed = 99;
    return spec;
  }());
  return dataset;
}

TrainConfig fast_config(int num_nodes) {
  TrainConfig config;
  config.embedding_rank = 8;
  config.num_nodes = num_nodes;
  config.batch_size = 200;
  config.max_epochs = 4;
  config.lr.base_lr = 0.01;
  config.lr.tolerance = 6;
  config.compute_final_metrics = false;
  config.seed = 4242;
  return config;
}

std::string fresh_dir(const std::string& name) {
  return ::testing::TempDir() + "dynkge_elastic_" +
         std::to_string(::getpid()) + "_" + name;
}

bool same_floats(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void expect_same_model(const TrainReport& a, const TrainReport& b,
                       const char* label) {
  ASSERT_NE(a.model, nullptr) << label;
  ASSERT_NE(b.model, nullptr) << label;
  EXPECT_TRUE(same_floats(a.model->entities().flat(),
                          b.model->entities().flat()))
      << label << ": entity embeddings differ";
  EXPECT_TRUE(same_floats(a.model->relations().flat(),
                          b.model->relations().flat()))
      << label << ": relation embeddings differ";
}

StrategyConfig strategy_by_name(const std::string& name) {
  if (name == "allreduce") return StrategyConfig::baseline_allreduce(2);
  if (name == "drs") return StrategyConfig::drs(2);
  if (name == "rs") return StrategyConfig::rs(2);
  if (name == "rs_1bit") return StrategyConfig::rs_1bit(2);
  return StrategyConfig::drs_1bit_rp_ss(5, 1);  // "full": relation partition
}

comm::FaultInjector crash_at_epoch(int rank, int epoch) {
  comm::FaultEvent event;
  event.kind = comm::FaultKind::kRankCrash;
  event.rank = rank;
  event.epoch = epoch;
  return comm::FaultInjector({event});
}

/// Reference for a shrink at `crash_epoch`: run the big world to the
/// snapshot the recovery will roll back to (end of crash_epoch - 1), then
/// resume a fresh run at the shrunk world from that snapshot.
TrainReport shrink_reference(const std::string& strategy, int big_world,
                             int small_world, int crash_epoch,
                             const std::string& dir_tag) {
  TrainConfig first_leg = fast_config(big_world);
  first_leg.strategy = strategy_by_name(strategy);
  first_leg.checkpoint.dir = fresh_dir(dir_tag);
  first_leg.max_epochs = crash_epoch;
  DistributedTrainer(tiny_dataset(), first_leg).train();

  TrainConfig second_leg = fast_config(small_world);
  second_leg.strategy = strategy_by_name(strategy);
  second_leg.checkpoint.dir = first_leg.checkpoint.dir;
  second_leg.checkpoint.resume = true;
  second_leg.elastic.enabled = true;  // permits the shrink-resume
  return DistributedTrainer(tiny_dataset(), second_leg).train();
}

class ElasticStrategyP : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(Strategies, ElasticStrategyP,
                         ::testing::Values("allreduce", "drs", "rs",
                                           "rs_1bit", "full"));

TEST_P(ElasticStrategyP, RecoveryMatchesFreshShrunkRunByteForByte) {
  const std::string strategy = GetParam();

  // Elastic run: 3 ranks, rank 2 dies at its first epoch-1 collective,
  // the survivors replay epoch 1 onward at world size 2.
  auto injector = crash_at_epoch(/*rank=*/2, /*epoch=*/1);
  TrainConfig config = fast_config(3);
  config.strategy = strategy_by_name(strategy);
  config.fault_injector = &injector;
  config.elastic.enabled = true;
  config.elastic.max_rank_failures = 1;
  const auto recovered = DistributedTrainer(tiny_dataset(), config).train();

  EXPECT_EQ(recovered.recoveries, 1);
  EXPECT_EQ(recovered.rank_failures, 1);
  EXPECT_EQ(recovered.num_nodes, 2);
  EXPECT_TRUE(recovered.replicas_consistent);
  EXPECT_EQ(injector.counters().crashes, 1u);

  const auto reference = shrink_reference(strategy, /*big_world=*/3,
                                          /*small_world=*/2,
                                          /*crash_epoch=*/1, strategy);
  EXPECT_EQ(recovered.epochs, reference.epochs);
  expect_same_model(recovered, reference, strategy.c_str());
}

TEST(Elastic, RecoveryBytesMatchGolden) {
  // drs1bit on 4 ranks, rank 1 dies in epoch 1; the 3 survivors replay
  // epoch 1 onward. Digest: final entity then relation bytes, then the
  // epoch count. Captured on x86-64, GCC 12, glibc 2.36 libm; a change on
  // this platform is a real numerical change and must not be re-captured
  // to make the test pass.
  comm::FaultInjector injector(comm::FaultInjector::parse_spec("crash@1@e1"));
  TrainConfig config = fast_config(4);
  config.strategy = StrategyConfig::drs_1bit(2);
  config.fault_injector = &injector;
  config.elastic.enabled = true;
  config.elastic.max_rank_failures = 1;
  const auto report = DistributedTrainer(tiny_dataset(), config).train();
  ASSERT_EQ(report.recoveries, 1);
  ASSERT_EQ(report.num_nodes, 3);
  const std::uint64_t digest = testing_util::fnv1a_value(
      report.epochs, testing_util::model_digest(*report.model));
  constexpr std::uint64_t kGolden = 0x5a410444efd7017dULL;
  EXPECT_EQ(digest, kGolden) << "golden " << testing_util::hex64(kGolden)
                             << ", got " << testing_util::hex64(digest);
}

TEST(Elastic, SimultaneousTwoRankCrashShrinksByTwo) {
  comm::FaultEvent a;
  a.kind = comm::FaultKind::kRankCrash;
  a.rank = 1;
  a.epoch = 1;
  comm::FaultEvent b = a;
  b.rank = 2;
  comm::FaultInjector injector({a, b});

  TrainConfig config = fast_config(4);
  config.strategy = strategy_by_name("drs");
  config.fault_injector = &injector;
  config.elastic.enabled = true;
  config.elastic.max_rank_failures = 2;
  const auto recovered = DistributedTrainer(tiny_dataset(), config).train();

  EXPECT_EQ(recovered.recoveries, 1);   // one recovery absorbed both deaths
  EXPECT_EQ(recovered.rank_failures, 2);
  EXPECT_EQ(recovered.num_nodes, 2);
  EXPECT_EQ(injector.counters().crashes, 2u);

  const auto reference = shrink_reference("drs", /*big_world=*/4,
                                          /*small_world=*/2,
                                          /*crash_epoch=*/1, "two_crash");
  expect_same_model(recovered, reference, "simultaneous two-rank crash");
}

TEST(Elastic, SequentialCrashesEachGetTheirOwnRecovery) {
  comm::FaultEvent one;
  one.kind = comm::FaultKind::kRankCrash;
  one.rank = 2;
  one.epoch = 1;
  comm::FaultEvent two;
  two.kind = comm::FaultKind::kRankCrash;
  two.rank = 1;
  two.epoch = 2;
  comm::FaultInjector injector({one, two});

  TrainConfig config = fast_config(3);
  config.strategy = strategy_by_name("allreduce");
  config.fault_injector = &injector;
  config.elastic.enabled = true;
  config.elastic.max_rank_failures = 2;
  const auto recovered = DistributedTrainer(tiny_dataset(), config).train();
  EXPECT_EQ(recovered.recoveries, 2);
  EXPECT_EQ(recovered.rank_failures, 2);
  EXPECT_EQ(recovered.num_nodes, 1);
  EXPECT_EQ(injector.counters().crashes, 2u);
}

TEST(Elastic, BudgetExhaustionFailsFastWithRankFailedError) {
  comm::FaultEvent one;
  one.kind = comm::FaultKind::kRankCrash;
  one.rank = 1;
  one.epoch = 1;
  comm::FaultEvent two = one;
  two.rank = 2;
  two.epoch = 2;
  comm::FaultInjector injector({one, two});

  TrainConfig config = fast_config(4);
  config.strategy = strategy_by_name("allreduce");
  config.fault_injector = &injector;
  config.elastic.enabled = true;
  config.elastic.max_rank_failures = 1;  // second death exceeds the budget
  EXPECT_THROW(DistributedTrainer(tiny_dataset(), config).train(),
               comm::RankFailedError);
}

TEST(Elastic, OffByDefaultFailsFastWithAllFailuresRecorded) {
  comm::FaultEvent a;
  a.kind = comm::FaultKind::kRankCrash;
  a.rank = 0;
  a.epoch = 1;
  comm::FaultEvent b = a;
  b.rank = 3;
  comm::FaultInjector injector({a, b});

  TrainConfig config = fast_config(4);
  config.strategy = strategy_by_name("allreduce");
  config.fault_injector = &injector;
  try {
    DistributedTrainer(tiny_dataset(), config).train();
    FAIL() << "crash did not propagate with elastic off";
  } catch (const comm::RankFailedError& error) {
    EXPECT_EQ(error.ranks(), (std::vector<int>{0, 3}));
  }
}

TEST(Elastic, ElasticModeItselfDoesNotPerturbFaultFreeTraining) {
  TrainConfig config = fast_config(2);
  config.strategy = strategy_by_name("drs");
  const auto plain = DistributedTrainer(tiny_dataset(), config).train();

  config.elastic.enabled = true;
  config.elastic.max_rank_failures = 1;
  const auto elastic = DistributedTrainer(tiny_dataset(), config).train();
  EXPECT_EQ(elastic.recoveries, 0);
  EXPECT_EQ(elastic.rank_failures, 0);
  ASSERT_EQ(plain.epochs, elastic.epochs);
  expect_same_model(plain, elastic, "elastic on vs off, no faults");
}

TEST(Elastic, RetryPolicyKnobsAreValidatedWithFlagNames) {
  TrainConfig config = fast_config(2);
  config.fault_retry_limit = 0;
  try {
    DistributedTrainer trainer(tiny_dataset(), config);
    FAIL() << "retry limit 0 accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("--fault-retry-limit"),
              std::string::npos)
        << error.what();
  }

  // The injector's own knobs are its to validate: both fault-taking
  // trainers get them from the same FaultInjector.
  for (const double backoff : {0.0, -1.0}) {
    comm::RetryPolicy retry;
    retry.backoff_seconds = backoff;
    try {
      comm::FaultInjector injector({}, retry);
      FAIL() << "backoff base " << backoff << " accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("--fault-backoff-base"),
                std::string::npos)
          << error.what();
    }
  }
  comm::RetryPolicy no_attempts;
  no_attempts.max_attempts = 0;
  try {
    comm::FaultInjector injector({}, no_attempts);
    FAIL() << "injector retry limit 0 accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("--fault-retry-limit"),
              std::string::npos)
        << error.what();
  }

  config = fast_config(2);
  config.elastic.max_rank_failures = -1;
  try {
    DistributedTrainer trainer(tiny_dataset(), config);
    FAIL() << "negative failure budget accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("--max-rank-failures"),
              std::string::npos)
        << error.what();
  }
}

TEST(Elastic, NonElasticResumeStillRejectsWorldSizeMismatch) {
  TrainConfig config = fast_config(3);
  config.strategy = strategy_by_name("allreduce");
  config.checkpoint.dir = fresh_dir("world_mismatch");
  config.max_epochs = 1;
  DistributedTrainer(tiny_dataset(), config).train();

  TrainConfig shrunk = fast_config(2);
  shrunk.strategy = strategy_by_name("allreduce");
  shrunk.checkpoint.dir = config.checkpoint.dir;
  shrunk.checkpoint.resume = true;
  try {
    DistributedTrainer(tiny_dataset(), shrunk).train();
    FAIL() << "world-size mismatch accepted without --elastic";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("num_nodes"), std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace dynkge::core
