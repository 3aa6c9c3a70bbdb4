// Kill/restart determinism, in process: a run checkpointed at epoch k and
// resumed must end with embeddings byte-identical to one uninterrupted
// run, for every gradient-exchange strategy (the snapshot has to capture
// optimizer moments, scheduler/selector state, residuals, and RNG
// streams for that to hold).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <span>
#include <string>

#include "core/trainer.hpp"
#include "kge/serialize.hpp"
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

TrainConfig fast_config() {
  TrainConfig config;
  config.embedding_rank = 8;
  config.num_nodes = 2;
  config.batch_size = 200;
  config.max_epochs = 8;
  config.lr.base_lr = 0.01;
  config.lr.tolerance = 6;
  config.compute_final_metrics = false;
  config.seed = 4242;
  return config;
}

std::string fresh_dir(const std::string& name) {
  return ::testing::TempDir() + "dynkge_ckpt_" + std::to_string(::getpid()) +
         "_" + name;
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
  if (name == "allgather") return StrategyConfig::baseline_allgather(2);
  if (name == "drs_1bit") return StrategyConfig::drs_1bit(2);
  if (name == "topk") return StrategyConfig::topk(40, 2);
  if (name == "rs_1bit_ef") {
    StrategyConfig strategy = StrategyConfig::rs_1bit(2);
    strategy.one_bit_scale = OneBitScale::kMean;
    strategy.error_feedback = true;
    return strategy;
  }
  return StrategyConfig::drs_1bit_rp_ss(5, 1);  // "full": relation partition
}

/// Strategies whose snapshots carry parked residual rows (selection
/// residuals under Top-K, quantization residuals under error feedback).
bool parks_residuals(const std::string& name) {
  return name == "topk" || name == "rs_1bit_ef";
}

class CheckpointResumeP : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(Strategies, CheckpointResumeP,
                         ::testing::Values("allreduce", "allgather",
                                           "drs_1bit", "full", "topk",
                                           "rs_1bit_ef"));

TEST_P(CheckpointResumeP, ResumedRunIsByteIdenticalToUninterrupted) {
  const std::string strategy = GetParam();
  TrainConfig config = fast_config();
  config.strategy = strategy_by_name(strategy);

  // A: uninterrupted reference, no checkpointing at all.
  const auto uninterrupted = DistributedTrainer(tiny_dataset(), config).train();

  // B: "crashes" after epoch 3 (modeled by the max_epochs cap — the CLI
  // kill/restart harness covers the real SIGKILL path).
  TrainConfig first_leg = config;
  first_leg.checkpoint.dir = fresh_dir(strategy);
  first_leg.max_epochs = 3;
  const auto partial = DistributedTrainer(tiny_dataset(), first_leg).train();
  EXPECT_GT(partial.checkpoints_written, 0);
  if (parks_residuals(strategy)) {
    // The resume must go through parked rows: four empty residual maps
    // encode as 16 bytes.
    const kge::TrainingSnapshot snap =
        kge::load_snapshot(first_leg.checkpoint.dir + "/snapshot.dkgs");
    for (const std::string& blob : snap.rank_residuals) {
      EXPECT_GT(blob.size(), 16u) << strategy;
    }
  }

  // C: restart from the snapshot and run to the full epoch budget.
  TrainConfig second_leg = config;
  second_leg.checkpoint.dir = first_leg.checkpoint.dir;
  second_leg.checkpoint.resume = true;
  const auto resumed = DistributedTrainer(tiny_dataset(), second_leg).train();

  EXPECT_EQ(resumed.start_epoch, partial.epochs);
  EXPECT_EQ(resumed.epochs, uninterrupted.epochs);
  EXPECT_TRUE(resumed.replicas_consistent);
  expect_same_model(uninterrupted, resumed, strategy.c_str());
}

TEST(CheckpointResume, CheckpointingItselfDoesNotPerturbTraining) {
  TrainConfig config = fast_config();
  config.strategy = StrategyConfig::drs_1bit(2);
  const auto plain = DistributedTrainer(tiny_dataset(), config).train();

  config.checkpoint.dir = fresh_dir("noperturb");
  const auto checkpointed = DistributedTrainer(tiny_dataset(), config).train();
  ASSERT_EQ(plain.epochs, checkpointed.epochs);
  for (int e = 0; e < plain.epochs; ++e) {
    // sim_seconds is part-measured (thread CPU time) and so varies run to
    // run; the numerics and the selector's transport decisions must not.
    EXPECT_DOUBLE_EQ(plain.epoch_log[e].mean_loss,
                     checkpointed.epoch_log[e].mean_loss);
    EXPECT_DOUBLE_EQ(plain.epoch_log[e].val_accuracy,
                     checkpointed.epoch_log[e].val_accuracy);
    EXPECT_EQ(plain.epoch_log[e].used_allgather,
              checkpointed.epoch_log[e].used_allgather);
  }
  expect_same_model(plain, checkpointed, "checkpointing on vs off");
}

TEST(CheckpointResume, EveryNWritesAtBoundariesAndEnd) {
  TrainConfig config = fast_config();
  config.strategy = StrategyConfig::baseline_allreduce(2);
  config.max_epochs = 5;
  config.lr.tolerance = 20;  // keep the plateau stop out of the way
  config.checkpoint.dir = fresh_dir("every");
  config.checkpoint.every = 2;
  const auto report = DistributedTrainer(tiny_dataset(), config).train();
  // Epoch boundaries 2 and 4, plus the final epoch 5.
  EXPECT_EQ(report.checkpoints_written, 3);
}

TEST(CheckpointResume, ResumeFromFinishedSnapshotIsANoOpRun) {
  TrainConfig config = fast_config();
  config.strategy = StrategyConfig::baseline_allreduce(2);
  config.max_epochs = 4;
  config.checkpoint.dir = fresh_dir("finished");
  const auto first = DistributedTrainer(tiny_dataset(), config).train();

  config.checkpoint.resume = true;
  const auto again = DistributedTrainer(tiny_dataset(), config).train();
  EXPECT_EQ(again.start_epoch, first.epochs);
  EXPECT_EQ(again.epochs, first.epochs);
  EXPECT_EQ(again.checkpoints_written, 0);
  EXPECT_DOUBLE_EQ(again.total_sim_seconds, first.total_sim_seconds);
  expect_same_model(first, again, "resume after completion");
}

TEST(CheckpointResume, ResumeWithEmptyDirStartsFresh) {
  // The crash may have predated the first checkpoint; --resume must then
  // behave exactly like a cold start.
  TrainConfig config = fast_config();
  config.strategy = StrategyConfig::baseline_allreduce(2);
  config.max_epochs = 4;
  const auto cold = DistributedTrainer(tiny_dataset(), config).train();

  config.checkpoint.dir = fresh_dir("empty");
  config.checkpoint.resume = true;
  const auto resumed = DistributedTrainer(tiny_dataset(), config).train();
  EXPECT_EQ(resumed.start_epoch, 0);
  expect_same_model(cold, resumed, "resume with no snapshot");
}

TEST(CheckpointResume, MismatchedConfigIsRejectedWithFieldName) {
  TrainConfig config = fast_config();
  config.strategy = StrategyConfig::baseline_allreduce(2);
  config.max_epochs = 2;
  config.checkpoint.dir = fresh_dir("mismatch");
  DistributedTrainer(tiny_dataset(), config).train();

  config.checkpoint.resume = true;
  config.seed = 999;  // a different RNG universe: resuming would be silent
                      // corruption, so it must throw
  try {
    DistributedTrainer(tiny_dataset(), config).train();
    FAIL() << "seed mismatch accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("seed"), std::string::npos)
        << error.what();
  }

  config.seed = 4242;
  config.model_name = "distmult";
  EXPECT_THROW(DistributedTrainer(tiny_dataset(), config).train(),
               std::invalid_argument);

  config.model_name = "complex";
  config.strategy = StrategyConfig::baseline_allgather(2);
  EXPECT_THROW(DistributedTrainer(tiny_dataset(), config).train(),
               std::invalid_argument);
}

TEST(CheckpointResume, RejectsNonPositiveEvery) {
  TrainConfig config = fast_config();
  config.checkpoint.dir = fresh_dir("badevery");
  config.checkpoint.every = 0;
  EXPECT_THROW(DistributedTrainer(tiny_dataset(), config).train(),
               std::invalid_argument);
}

}  // namespace
}  // namespace dynkge::core
