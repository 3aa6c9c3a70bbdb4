// Training-kernel throughput bench: the blocked training step (batched
// scoring, GradWork gradient blocks, blocked Adam) on the FB250K stand-in
// at 8 simulated ranks.
//
// Two configurations bracket the hot path:
//   baseline  — all-reduce, 1 negative per positive (paper's FB250K
//               baseline): gradient accumulation + Adam dominate.
//   combined  — DRS + 1-bit + RP + SS 1:5 (the paper's best stack):
//               hard-negative candidate scoring dominates, which is the
//               forward path the blocked kernels batch.
//
// Each configuration trains a fixed number of epochs and reports
// throughput as positives retired per compute-CPU second — CPU time, not
// wall time, so the number means the same thing on a loaded CI runner and
// a quiet laptop. The bytes the kernels produce are pinned by the golden
// digests in tests/test_block_kernels.cpp, not here.
//
// --bench-json <file> writes the machine-readable results consumed by
// tools/check_bench.py (the CI gate against BENCH_train.baseline.json).
#include <string>

#include "harness/harness.hpp"
#include "util/argparse.hpp"

using namespace dynkge;

int main(int argc, char** argv) {
  auto options = bench::parse_options(argc, argv, "fb250k", {8});
  const util::ArgParser extra(argc, argv);
  // Fixed short runs: throughput needs identical work per run, not
  // convergence. Overridable the usual way (--max-epochs / --rank).
  if (!extra.has_flag("max-epochs")) options.max_epochs = 4;
  if (!extra.has_flag("rank")) options.rank = 32;
  // Default to the acceptance regime: fb250k_mini at 8 simulated ranks.
  if (!extra.has_flag("scale")) options.scale = "mini";

  const kge::Dataset dataset = bench::make_dataset(options);
  bench::print_banner("Training kernels: blocked training step throughput",
                      "blocked kernels change throughput only — the bytes "
                      "they produce are pinned by golden digests",
                      options, dataset);

  const int ranks = static_cast<int>(options.nodes.back());
  obs::BenchReporter reporter("train", options.bench_json);
  bench::context_from(reporter, options);
  reporter.context("nodes", static_cast<std::int64_t>(ranks));

  struct Config {
    const char* name;
    core::StrategyConfig strategy;
  };
  const Config configs[] = {
      {"baseline",
       core::StrategyConfig::baseline_allreduce(options.baseline_negatives)},
      {"combined",
       core::StrategyConfig::drs_1bit_rp_ss(options.ss_sampled,
                                            options.ss_used)},
  };

  util::Table table(
      {"config", "epochs", "compute_cpu_s", "positives_per_cpu_s"});
  for (const Config& config : configs) {
    core::TrainConfig train = bench::make_config(options, ranks);
    train.strategy = config.strategy;
    train.max_epochs = options.max_epochs;
    // A plateau stop would make the retired work depend on measurement
    // noise; pin it instead.
    train.lr.tolerance = options.max_epochs + 1;
    train.compute_final_metrics = false;
    train.valid_max_triples = 50;

    const core::TrainReport report =
        bench::run_experiment(dataset, std::move(train));
    const double positives =
        static_cast<double>(dataset.train().size()) * report.epochs;
    const double throughput = report.compute_cpu_seconds > 0.0
                                  ? positives / report.compute_cpu_seconds
                                  : 0.0;
    table.begin_row()
        .add(config.name)
        .add(static_cast<std::int64_t>(report.epochs))
        .add(report.compute_cpu_seconds, 3)
        .add(throughput, 0);
    const std::string key = config.name;
    reporter.set(key + ".positives_per_cpu_s", throughput);
    reporter.count(key + ".epochs", static_cast<std::uint64_t>(report.epochs));
  }

  bench::emit(table, "Blocked training step throughput", options.csv);
  return reporter.write() ? 0 : 1;
}
