#include "core/hogwild_trainer.hpp"

#include <atomic>
#include <stdexcept>
#include <thread>

#include "core/scaffold.hpp"
#include "core/train_step.hpp"
#include "kge/negative_sampler.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_clock.hpp"

namespace dynkge::core {

using util::Rng;

HogwildTrainer::HogwildTrainer(const kge::Dataset& dataset,
                               HogwildConfig config)
    : dataset_(dataset), config_(std::move(config)) {
  if (config_.num_threads < 1) {
    throw std::invalid_argument("HogwildConfig: num_threads must be >= 1");
  }
  if (config_.negatives < 1) {
    throw std::invalid_argument("HogwildConfig: negatives must be >= 1");
  }
  if (config_.max_epochs < 1) {
    throw std::invalid_argument("HogwildConfig: max_epochs must be >= 1");
  }
}

HogwildReport HogwildTrainer::train() {
  const util::Stopwatch wall;

  auto model = init_model(config_.model_name, dataset_,
                          config_.embedding_rank, config_.seed);

  // Scheduler follows the same capped linear-scaling rule as the
  // distributed trainer: more threads, larger effective throughput.
  PlateauScheduler scheduler(config_.lr, config_.num_threads);
  const kge::NegativeSampler sampler(dataset_);
  const kge::Evaluator evaluator(dataset_);

  kge::TripleList triples(dataset_.train().begin(), dataset_.train().end());
  Rng shuffle_rng(util::derive_seed(config_.seed, 0x5u));

  HogwildReport report;
  report.model_name = config_.model_name;
  report.num_threads = config_.num_threads;

  for (int epoch = 0; epoch < config_.max_epochs; ++epoch) {
    util::shuffle(triples, shuffle_rng);
    const double lr = scheduler.lr();
    const auto learning_rate = static_cast<float>(lr);
    const auto decay = static_cast<float>(config_.weight_decay);

    std::atomic<double> loss_sum{0.0};
    std::atomic<double> cpu_sum{0.0};
    std::vector<std::thread> workers;
    workers.reserve(config_.num_threads);
    const std::size_t chunk =
        (triples.size() + config_.num_threads - 1) / config_.num_threads;

    for (int t = 0; t < config_.num_threads; ++t) {
      workers.emplace_back([&, t] {
        double cpu = 0.0;
        double local_loss = 0.0;
        {
          util::ThreadCpuTimer timer(cpu);
          Rng rng(util::derive_seed(config_.seed, t, epoch, 0x40Du));
          const std::size_t begin = std::min(t * chunk, triples.size());
          const std::size_t end = std::min(begin + chunk, triples.size());
          kge::ModelGrads grads = model->make_grads();
          // Lock-free updates of the shared model: racy against sibling
          // threads, benign for sparse embedding gradients (Hogwild).
          for (std::size_t i = begin; i < end; ++i) {
            local_loss += sgd_step(*model, triples[i], +1, learning_rate,
                                   decay, grads);
            for (int n = 0; n < config_.negatives; ++n) {
              local_loss += sgd_step(*model, sampler.corrupt(triples[i], rng),
                                     -1, learning_rate, decay, grads);
            }
          }
        }
        // Relaxed accumulate (atomic<double> has no fetch_add pre-C++20
        // on all libstdc++ versions; use CAS loop).
        for (double expected = loss_sum.load();
             !loss_sum.compare_exchange_weak(expected,
                                             expected + local_loss);) {
        }
        for (double expected = cpu_sum.load();
             !cpu_sum.compare_exchange_weak(expected, expected + cpu);) {
        }
      });
    }
    for (auto& worker : workers) worker.join();

    const double val_accuracy = evaluator.validation_accuracy(
        *model, util::derive_seed(config_.seed, epoch, 0xACCu),
        config_.valid_max_triples);
    scheduler.observe(val_accuracy);

    HogwildEpochRecord record;
    record.epoch = epoch;
    record.mean_loss =
        loss_sum.load() /
        std::max<std::size_t>(1, triples.size() * (1 + config_.negatives));
    record.val_accuracy = val_accuracy;
    record.lr = lr;
    record.cpu_seconds = cpu_sum.load();
    report.epoch_log.push_back(record);
    report.epochs = epoch + 1;
    report.final_val_accuracy = val_accuracy;
    report.total_cpu_seconds += record.cpu_seconds;

    if (scheduler.should_stop()) {
      report.converged = true;
      break;
    }
  }

  if (config_.compute_final_metrics) {
    final_metrics(*model, dataset_, config_.seed, config_.eval_max_triples,
                  /*pool=*/nullptr, report.tca, report.ranking);
  }
  report.model = std::move(model);
  report.wall_seconds = wall.seconds();
  return report;
}

}  // namespace dynkge::core
