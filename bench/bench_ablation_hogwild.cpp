// Ablation — shared-memory lock-free training (the related-work approach
// of Zhang et al. / ParaGraphE) against the paper's synchronous
// distributed training, on the same workload.
//
// Hogwild scales only within one node's cores and trades determinism for
// synchronization-free updates; the distributed trainer is deterministic
// and scales across nodes at the price of communication. This bench
// reports convergence quality for both at matching parallelism.
#include <iostream>

#include "core/hogwild_trainer.hpp"
#include "harness/harness.hpp"

using namespace dynkge;

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv, "fb15k", {1, 2, 4});
  obs::BenchReporter reporter("ablation_hogwild", options.bench_json);
  bench::context_from(reporter, options);
  const kge::Dataset dataset = bench::make_dataset(options);
  bench::print_banner(
      "Ablation: Hogwild shared-memory baseline vs synchronous distributed",
      "lock-free shared-memory training reaches comparable accuracy within "
      "one node but offers no path across nodes",
      options, dataset);

  util::Table table({"parallelism", "mode", "N", "TCA", "MRR",
                     "deterministic"});
  for (const std::int64_t parallelism : options.nodes) {
    {
      core::TrainConfig config =
          bench::make_config(options, static_cast<int>(parallelism));
      config.strategy =
          core::StrategyConfig::baseline_allreduce(options.baseline_negatives);
      const auto report = bench::run_experiment(dataset, config);
      table.begin_row()
          .add(parallelism)
          .add("distributed (allreduce)")
          .add(static_cast<std::int64_t>(report.epochs))
          .add(report.tca, 1)
          .add(report.ranking.mrr, 3)
          .add("yes");
      const std::string key =
          "distributed.p" + std::to_string(parallelism);
      reporter.count(key + ".epochs",
                     static_cast<std::uint64_t>(report.epochs));
      reporter.set(key + ".tca", report.tca);
      reporter.set(key + ".mrr", report.ranking.mrr);
    }
    {
      core::HogwildConfig config;
      config.embedding_rank = options.rank;
      config.num_threads = static_cast<int>(parallelism);
      config.negatives = options.baseline_negatives;
      config.max_epochs = options.max_epochs;
      config.lr.base_lr = 5.0 * options.base_lr;  // plain SGD step size
      config.lr.max_scale = 1;
      config.lr.tolerance = options.tolerance;
      config.seed = options.seed;
      const auto report = core::HogwildTrainer(dataset, config).train();
      std::fprintf(stderr, "[bench] hogwild x%d N=%d TCA=%.1f MRR=%.3f\n",
                   report.num_threads, report.epochs, report.tca,
                   report.ranking.mrr);
      table.begin_row()
          .add(parallelism)
          .add("hogwild (shared memory)")
          .add(static_cast<std::int64_t>(report.epochs))
          .add(report.tca, 1)
          .add(report.ranking.mrr, 3)
          .add(parallelism == 1 ? "yes" : "no (racy)");
      // Hogwild at >1 thread is racy by design: only the single-thread
      // series is deterministic enough to gate.
      const std::string key = "hogwild.p" + std::to_string(parallelism);
      reporter.set(key + ".tca", report.tca);
      reporter.set(key + ".mrr", report.ranking.mrr);
    }
  }
  bench::emit(table, "Hogwild vs distributed at matched parallelism",
              options.csv);
  return reporter.write() ? 0 : 1;
}
