// Shared-memory lock-free KGE training (Hogwild-style).
//
// The paper's related work (section 2) cites Zhang et al. 2017 and Niu &
// Li's ParaGraphE: multi-threaded training of one shared embedding table
// with lock-free updates. This module implements that baseline so the
// distributed strategies can be compared against the shared-memory
// approach they superseded at scale.
//
// Updates are plain SGD (racy, "benign" in the Hogwild sense: embedding
// gradients are sparse, so collisions are rare); the learning-rate
// schedule is the same plateau scheduler the distributed trainer uses.
// Unlike the distributed trainer, results are NOT bit-deterministic —
// thread interleaving changes float summation orders — which is itself
// one of the trade-offs the synchronous approach removes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/lr_scheduler.hpp"
#include "kge/dataset.hpp"
#include "kge/evaluator.hpp"

namespace dynkge::core {

struct HogwildConfig {
  std::string model_name = "complex";
  std::int32_t embedding_rank = 32;

  int num_threads = 4;
  int negatives = 1;            ///< uniform corruptions per positive
  double weight_decay = 1e-6;

  PlateauConfig lr;
  int max_epochs = 200;

  std::uint64_t seed = 1234;
  std::size_t valid_max_triples = 500;
  std::size_t eval_max_triples = 250;
  bool compute_final_metrics = true;
};

struct HogwildEpochRecord {
  int epoch = 0;
  double mean_loss = 0.0;
  double val_accuracy = 0.0;
  double lr = 0.0;
  double cpu_seconds = 0.0;  ///< summed thread-CPU time of the epoch
};

struct HogwildReport {
  std::string model_name;
  int num_threads = 1;
  int epochs = 0;
  bool converged = false;
  double wall_seconds = 0.0;
  double total_cpu_seconds = 0.0;
  double final_val_accuracy = 0.0;
  double tca = 0.0;
  kge::RankingMetrics ranking;
  std::vector<HogwildEpochRecord> epoch_log;
  std::shared_ptr<kge::KgeModel> model;
};

class HogwildTrainer {
 public:
  HogwildTrainer(const kge::Dataset& dataset, HogwildConfig config);

  HogwildReport train();

 private:
  const kge::Dataset& dataset_;
  HogwildConfig config_;
};

}  // namespace dynkge::core
