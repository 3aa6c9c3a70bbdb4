// Integration tests for the DistributedTrainer: every strategy combination
// must run end to end, converge on a learnable graph, stay deterministic,
// and keep replicas numerically consistent.
#include "core/trainer.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "core/scaffold.hpp"
#include "kge/evaluator.hpp"
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

TrainConfig fast_config(int nodes) {
  TrainConfig config;
  config.embedding_rank = 8;
  config.num_nodes = nodes;
  config.batch_size = 200;
  config.max_epochs = 12;
  config.lr.base_lr = 0.01;
  config.lr.tolerance = 6;
  config.compute_final_metrics = false;
  config.seed = 4242;
  return config;
}

TEST(Trainer, RejectsBadConfig) {
  TrainConfig config = fast_config(1);
  config.num_nodes = 0;
  EXPECT_THROW(DistributedTrainer(tiny_dataset(), config),
               std::invalid_argument);
  config = fast_config(1);
  config.batch_size = 0;
  EXPECT_THROW(DistributedTrainer(tiny_dataset(), config),
               std::invalid_argument);
  config = fast_config(1);
  config.strategy.negatives_used = 5;
  config.strategy.negatives_sampled = 2;
  EXPECT_THROW(DistributedTrainer(tiny_dataset(), config),
               std::invalid_argument);
  config = fast_config(1);
  config.host_threads = -1;
  EXPECT_THROW(DistributedTrainer(tiny_dataset(), config),
               std::invalid_argument);
  // Dynamic mode with probe_interval 1 would never refresh its all-reduce
  // baseline; the trainer rejects it up front rather than at epoch time.
  config = fast_config(2);
  config.strategy = StrategyConfig::drs_1bit(2);
  config.strategy.dynamic_probe_interval = 1;
  EXPECT_THROW(DistributedTrainer(tiny_dataset(), config),
               std::invalid_argument);
}

TEST(Trainer, ReportBasicsFilled) {
  TrainConfig config = fast_config(2);
  config.strategy = StrategyConfig::baseline_allreduce(2);
  const auto report = DistributedTrainer(tiny_dataset(), config).train();
  EXPECT_EQ(report.num_nodes, 2);
  EXPECT_EQ(report.strategy_label, "allreduce");
  EXPECT_EQ(report.model_name, "complex");
  EXPECT_GT(report.epochs, 0);
  EXPECT_LE(report.epochs, config.max_epochs);
  EXPECT_EQ(report.epoch_log.size(), static_cast<std::size_t>(report.epochs));
  EXPECT_GT(report.total_sim_seconds, 0.0);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_DOUBLE_EQ(report.allreduce_fraction, 1.0);
}

TEST(Trainer, EpochLogIsInternallyConsistent) {
  TrainConfig config = fast_config(2);
  config.strategy = StrategyConfig::baseline_allgather(2);
  const auto report = DistributedTrainer(tiny_dataset(), config).train();
  double sim_sum = 0.0;
  for (const auto& record : report.epoch_log) {
    EXPECT_GE(record.sim_seconds, 0.0);
    EXPECT_GE(record.comm_seconds, 0.0);
    EXPECT_LE(record.comm_seconds, record.sim_seconds + 1e-9);
    EXPECT_TRUE(record.used_allgather);
    EXPECT_GT(record.lr, 0.0);
    sim_sum += record.sim_seconds;
  }
  EXPECT_NEAR(sim_sum, report.total_sim_seconds, 1e-9);
}

TEST(Trainer, DeterministicAcrossRuns) {
  TrainConfig config = fast_config(2);
  config.strategy = StrategyConfig::rs_1bit(2);
  const auto a = DistributedTrainer(tiny_dataset(), config).train();
  const auto b = DistributedTrainer(tiny_dataset(), config).train();
  ASSERT_EQ(a.epochs, b.epochs);
  for (int e = 0; e < a.epochs; ++e) {
    EXPECT_DOUBLE_EQ(a.epoch_log[e].mean_loss, b.epoch_log[e].mean_loss);
    EXPECT_DOUBLE_EQ(a.epoch_log[e].val_accuracy,
                     b.epoch_log[e].val_accuracy);
  }
}

TEST(Trainer, SeedChangesTrajectory) {
  TrainConfig config = fast_config(2);
  config.strategy = StrategyConfig::baseline_allreduce(2);
  const auto a = DistributedTrainer(tiny_dataset(), config).train();
  config.seed = 777;
  const auto b = DistributedTrainer(tiny_dataset(), config).train();
  EXPECT_NE(a.epoch_log[0].mean_loss, b.epoch_log[0].mean_loss);
}

class TrainerStrategyP
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    NodesByStrategy, TrainerStrategyP,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(0, 1, 2, 3, 4, 5, 6)));

StrategyConfig strategy_by_index(int index) {
  switch (index) {
    case 0:
      return StrategyConfig::baseline_allreduce(2);
    case 1:
      return StrategyConfig::baseline_allgather(2);
    case 2:
      return StrategyConfig::rs(2);
    case 3:
      return StrategyConfig::rs_1bit(2);
    case 4:
      return StrategyConfig::drs_1bit(2);
    case 5:
      return StrategyConfig::baseline_parameter_server(2);
    default:
      return StrategyConfig::drs_1bit_rp_ss(5, 1);
  }
}

TEST_P(TrainerStrategyP, RunsAndReducesLoss) {
  const auto [nodes, strategy_index] = GetParam();
  TrainConfig config = fast_config(nodes);
  config.strategy = strategy_by_index(strategy_index);
  const auto report = DistributedTrainer(tiny_dataset(), config).train();
  ASSERT_GE(report.epochs, 2);
  EXPECT_LT(report.epoch_log.back().mean_loss,
            report.epoch_log.front().mean_loss)
      << report.strategy_label << " on " << nodes << " nodes";
  // The central invariant of synchronous data-parallel training: all
  // replicas end bit-identical, under every strategy combination.
  EXPECT_TRUE(report.replicas_consistent)
      << report.strategy_label << " on " << nodes << " nodes";
}

TEST(Trainer, ConvergesToHighAccuracy) {
  TrainConfig config = fast_config(2);
  config.max_epochs = 120;
  config.lr.tolerance = 15;
  config.compute_final_metrics = true;
  config.strategy = StrategyConfig::baseline_allreduce(2);
  const auto report = DistributedTrainer(tiny_dataset(), config).train();
  EXPECT_GT(report.tca, 85.0);
  EXPECT_GT(report.ranking.mrr, 0.5);
  EXPECT_GT(report.final_val_accuracy, 85.0);
}

TEST(Trainer, CombinedStrategyConvergesToo) {
  TrainConfig config = fast_config(2);
  config.max_epochs = 200;
  config.lr.tolerance = 15;
  config.compute_final_metrics = true;
  config.strategy = StrategyConfig::drs_1bit_rp_ss(5, 1);
  const auto report = DistributedTrainer(tiny_dataset(), config).train();
  EXPECT_GT(report.tca, 85.0);
  EXPECT_GT(report.ranking.mrr, 0.5);
}

TEST(Trainer, RelationPartitionMovesFewerRelationBytes) {
  TrainConfig config = fast_config(4);
  config.strategy = StrategyConfig::baseline_allgather(2);
  const auto without = DistributedTrainer(tiny_dataset(), config).train();
  config.strategy.relation_partition = true;
  const auto with = DistributedTrainer(tiny_dataset(), config).train();
  // Same epochs are not guaranteed; compare per-epoch traffic instead.
  const double bytes_without =
      static_cast<double>(without.comm_stats.total_bytes()) / without.epochs;
  const double bytes_with =
      static_cast<double>(with.comm_stats.total_bytes()) / with.epochs;
  EXPECT_LT(bytes_with, bytes_without);
}

TEST(Trainer, QuantizationReducesGatherTraffic) {
  TrainConfig config = fast_config(4);
  config.strategy = StrategyConfig::rs(2);
  const auto raw = DistributedTrainer(tiny_dataset(), config).train();
  config.strategy = StrategyConfig::rs_1bit(2);
  const auto quant = DistributedTrainer(tiny_dataset(), config).train();
  const auto gather_bytes = [](const TrainReport& r) {
    return static_cast<double>(
               r.comm_stats.of(comm::CollectiveKind::kAllGatherV).bytes) /
           r.epochs;
  };
  EXPECT_LT(gather_bytes(quant), gather_bytes(raw) / 4.0);
}

TEST(Trainer, DynamicSelectorEventuallyGathers) {
  TrainConfig config = fast_config(4);
  config.max_epochs = 25;
  config.lr.tolerance = 25;  // keep training alive for the probes
  config.strategy = StrategyConfig::drs_1bit(2);
  config.strategy.dynamic_probe_interval = 5;
  const auto report = DistributedTrainer(tiny_dataset(), config).train();
  // With 1-bit gather volume, the probe at epoch 5 must win.
  EXPECT_LT(report.allreduce_fraction, 0.5);
  bool gathered_late = false;
  for (const auto& record : report.epoch_log) {
    if (record.epoch > 10) gathered_late |= record.used_allgather;
  }
  EXPECT_TRUE(gathered_late);
}

TEST(Trainer, NodeScalingShrinksEpochTime) {
  TrainConfig config = fast_config(1);
  config.max_epochs = 8;
  config.strategy = StrategyConfig::baseline_allreduce(2);
  const auto one = DistributedTrainer(tiny_dataset(), config).train();
  config.num_nodes = 4;
  const auto four = DistributedTrainer(tiny_dataset(), config).train();
  EXPECT_LT(four.epoch_log.back().sim_seconds,
            one.epoch_log.back().sim_seconds);
}

TEST(Trainer, SampleSelectionKeepsClassBalance) {
  // 1-out-of-5: exactly one negative per positive is trained on, so the
  // per-epoch example count matches the 1:1 baseline, not the 5:1 one.
  TrainConfig config = fast_config(1);
  config.max_epochs = 3;
  config.strategy = StrategyConfig::baseline_allreduce(5);
  config.strategy.negatives_used = 1;
  const auto ss = DistributedTrainer(tiny_dataset(), config).train();
  config.strategy = StrategyConfig::baseline_allreduce(1);
  const auto one = DistributedTrainer(tiny_dataset(), config).train();
  config.strategy = StrategyConfig::baseline_allreduce(5);
  const auto five = DistributedTrainer(tiny_dataset(), config).train();
  // Rows touched per step reflect examples trained: SS(5->1) ~ baseline(1).
  EXPECT_NEAR(ss.epoch_log[0].rows_before_selection,
              one.epoch_log[0].rows_before_selection,
              one.epoch_log[0].rows_before_selection * 0.2);
  EXPECT_LT(ss.epoch_log[0].rows_before_selection,
            five.epoch_log[0].rows_before_selection);
}

TEST(Trainer, OtherModelsTrainToo) {
  for (const char* model : {"distmult", "transe"}) {
    TrainConfig config = fast_config(2);
    config.model_name = model;
    config.max_epochs = 10;
    config.strategy = StrategyConfig::baseline_allreduce(2);
    const auto report = DistributedTrainer(tiny_dataset(), config).train();
    EXPECT_LT(report.epoch_log.back().mean_loss,
              report.epoch_log.front().mean_loss)
        << model;
  }
}

TEST(Trainer, ParameterServerMatchesAllReduceTrajectory) {
  // Identical numerics through a different modeled transport: the loss
  // trajectories must match exactly.
  TrainConfig config = fast_config(2);
  config.max_epochs = 6;
  config.strategy = StrategyConfig::baseline_allreduce(2);
  const auto reduce = DistributedTrainer(tiny_dataset(), config).train();
  config.strategy = StrategyConfig::baseline_parameter_server(2);
  const auto ps = DistributedTrainer(tiny_dataset(), config).train();
  ASSERT_EQ(reduce.epochs, ps.epochs);
  for (int e = 0; e < reduce.epochs; ++e) {
    EXPECT_DOUBLE_EQ(reduce.epoch_log[e].mean_loss,
                     ps.epoch_log[e].mean_loss);
  }
  EXPECT_EQ(ps.strategy_label, "param-server");
}

TEST(Trainer, WarmStartResumesFromGivenParameters) {
  TrainConfig config = fast_config(2);
  config.max_epochs = 8;
  config.strategy = StrategyConfig::baseline_allreduce(2);
  const auto first = DistributedTrainer(tiny_dataset(), config).train();

  config.warm_start = first.model;
  const auto resumed = DistributedTrainer(tiny_dataset(), config).train();
  // A warm start begins where the cold run ended: its first-epoch loss is
  // near the cold run's last-epoch loss, far below the cold first epoch.
  EXPECT_LT(resumed.epoch_log.front().mean_loss,
            0.5 * first.epoch_log.front().mean_loss);
}

TEST(Trainer, WarmStartRejectsShapeMismatch) {
  TrainConfig config = fast_config(1);
  config.max_epochs = 2;
  config.compute_final_metrics = false;
  config.strategy = StrategyConfig::baseline_allreduce(1);
  const auto report = DistributedTrainer(tiny_dataset(), config).train();

  config.embedding_rank = 16;  // different width than the checkpoint
  config.warm_start = report.model;
  EXPECT_THROW(DistributedTrainer(tiny_dataset(), config).train(),
               std::invalid_argument);
}

// --- Host parallelism: wall-time knob only, never a numerics knob ---

bool same_floats(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(Trainer, HostThreadCountIsBitDeterministic) {
  // The simulated cluster must produce byte-identical models, epoch logs
  // and final metrics no matter how many host threads co-schedule the
  // ranks and rank the test split: fewer workers than ranks, matching,
  // and more than ranks.
  TrainConfig config = fast_config(4);
  config.strategy = StrategyConfig::rs_1bit(2);
  config.compute_final_metrics = true;
  std::vector<TrainReport> reports;
  for (const int host_threads : {1, 2, 8}) {
    config.host_threads = host_threads;
    reports.push_back(DistributedTrainer(tiny_dataset(), config).train());
    EXPECT_EQ(reports.back().host_threads, host_threads);
  }
  const TrainReport& base = reports.front();
  ASSERT_NE(base.model, nullptr);
  EXPECT_GT(base.ranking.evaluated, 0u);
  for (std::size_t i = 1; i < reports.size(); ++i) {
    const TrainReport& other = reports[i];
    EXPECT_TRUE(other.replicas_consistent);
    ASSERT_EQ(base.epochs, other.epochs) << "host_threads run " << i;
    for (int e = 0; e < base.epochs; ++e) {
      EXPECT_DOUBLE_EQ(base.epoch_log[e].mean_loss,
                       other.epoch_log[e].mean_loss);
      EXPECT_DOUBLE_EQ(base.epoch_log[e].val_accuracy,
                       other.epoch_log[e].val_accuracy);
      EXPECT_DOUBLE_EQ(base.epoch_log[e].lr, other.epoch_log[e].lr);
      EXPECT_EQ(base.epoch_log[e].used_allgather,
                other.epoch_log[e].used_allgather);
      EXPECT_EQ(base.epoch_log[e].rows_sent, other.epoch_log[e].rows_sent);
      EXPECT_EQ(base.epoch_log[e].rows_before_selection,
                other.epoch_log[e].rows_before_selection);
    }
    ASSERT_NE(other.model, nullptr);
    EXPECT_TRUE(same_floats(base.model->entities().flat(),
                            other.model->entities().flat()))
        << "entity embeddings diverged at host_threads run " << i;
    EXPECT_TRUE(same_floats(base.model->relations().flat(),
                            other.model->relations().flat()))
        << "relation embeddings diverged at host_threads run " << i;
    EXPECT_EQ(base.tca, other.tca);
    EXPECT_EQ(base.ranking.mrr, other.ranking.mrr);
    EXPECT_EQ(base.ranking.mean_rank, other.ranking.mean_rank);
    EXPECT_EQ(base.ranking.hits10, other.ranking.hits10);
  }
}

TEST(Trainer, HostTelemetryFilled) {
  TrainConfig config = fast_config(2);
  config.max_epochs = 4;
  config.host_threads = 2;
  config.strategy = StrategyConfig::baseline_allreduce(2);
  const auto report = DistributedTrainer(tiny_dataset(), config).train();
  EXPECT_EQ(report.host_threads, 2);
  EXPECT_GT(report.compute_cpu_seconds, 0.0);
  EXPECT_GT(report.host_speedup(), 0.0);
}

TEST(Trainer, FinalMetricsRankTheReturnedModel) {
  // The final ranking runs once, on the host, over the model train()
  // returns: a serial evaluation of that model gives the same bytes.
  TrainConfig config = fast_config(2);
  config.max_epochs = 3;
  config.host_threads = 2;
  config.strategy = StrategyConfig::rs_1bit(2);
  config.compute_final_metrics = true;
  const auto report = DistributedTrainer(tiny_dataset(), config).train();
  ASSERT_NE(report.model, nullptr);
  EXPECT_GT(report.tca, 0.0);
  kge::EvalOptions options;
  options.max_triples = config.eval_max_triples;
  const kge::RankingMetrics serial =
      kge::Evaluator(tiny_dataset())
          .link_prediction(*report.model, tiny_dataset().test(), options);
  EXPECT_GT(serial.evaluated, 0u);
  EXPECT_EQ(report.ranking.evaluated, serial.evaluated);
  EXPECT_EQ(report.ranking.mrr, serial.mrr);
  EXPECT_EQ(report.ranking.mean_rank, serial.mean_rank);
  EXPECT_EQ(report.ranking.hits1, serial.hits1);
  EXPECT_EQ(report.ranking.hits10, serial.hits10);
  EXPECT_EQ(report.ranking.mrr_head_side, serial.mrr_head_side);
  EXPECT_EQ(report.ranking.mrr_tail_side, serial.mrr_tail_side);
}

TEST(Trainer, SelectionIntroducesSparsity) {
  TrainConfig config = fast_config(2);
  config.max_epochs = 5;
  config.strategy = StrategyConfig::rs(2);
  const auto report = DistributedTrainer(tiny_dataset(), config).train();
  const auto& last = report.epoch_log.back();
  EXPECT_LT(last.rows_sent, last.rows_before_selection);
}

// ---- the shared replica check -----------------------------------------

/// Each rank's verdict when both ranks start from the same model and rank
/// 1 then nudges entity row `entity` and/or relation row `relation` (-1:
/// untouched).
std::vector<char> replica_verdicts(bool with_relations, int entity,
                                   int relation) {
  std::vector<char> verdicts(2, 0);
  comm::Cluster(2).run([&](comm::Communicator& comm) {
    auto model = init_model("complex", tiny_dataset(), 8, 4242);
    if (comm.rank() == 1) {
      if (entity >= 0) model->entities().row(entity)[0] += 1.0f;
      if (relation >= 0) model->relations().row(relation)[0] += 1.0f;
    }
    verdicts[static_cast<std::size_t>(comm.rank())] =
        replicas_consistent(comm, *model, with_relations);
  });
  return verdicts;
}

TEST(ReplicaCheck, RelationRowsCountWithoutRelationPartition) {
  const std::vector<char> consistent{1, 1};
  const std::vector<char> diverged{0, 0};
  EXPECT_EQ(replica_verdicts(true, -1, -1), consistent);
  EXPECT_EQ(replica_verdicts(true, -1, 3), diverged);
  EXPECT_EQ(replica_verdicts(true, 5, -1), diverged);
  // Under relation partition only the owner's relation rows are fresh, so
  // the check covers entity rows alone.
  EXPECT_EQ(replica_verdicts(false, -1, 3), consistent);
  EXPECT_EQ(replica_verdicts(false, 5, -1), diverged);
}

}  // namespace
}  // namespace dynkge::core
