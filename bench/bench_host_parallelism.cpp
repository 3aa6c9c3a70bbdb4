// Ablation — host thread pool sizing for the simulated cluster.
//
// The simulated cluster's P rank programs are co-scheduled on a shared
// host thread pool (util::ThreadPool::run_cohort). The pool size is a
// pure wall-clock knob: the trained model, epoch log, and the modeled
// sim_seconds must stay bit-identical for any host_threads >= 1. This
// bench sweeps host_threads for a fixed 8-rank configuration and reports
// wall time, the rank compute it overlapped, and the resulting host-side
// speedup (compute CPU seconds / wall seconds — the honest metric even
// on a 1-core host, where wall-clock speedup is unobservable).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "harness/harness.hpp"
#include "util/thread_pool.hpp"

using namespace dynkge;

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv, "fb15k", {8});
  obs::BenchReporter reporter("host_parallelism", options.bench_json);
  bench::context_from(reporter, options);
  const kge::Dataset dataset = bench::make_dataset(options);
  bench::print_banner(
      "Ablation: host thread pool size for a fixed simulated cluster",
      "host_threads changes wall time only; epochs, losses and the final "
      "model are bit-identical at every pool size (sim_s still contains "
      "measured thread-CPU compute, so it jitters like any measurement)",
      options, dataset);

  const int ranks = static_cast<int>(options.nodes.back());
  const unsigned hardware = util::ThreadPool::hardware_threads();
  std::printf("# %d simulated ranks on a host with %u hardware thread(s)\n\n",
              ranks, hardware);

  util::Table table({"host_threads", "wall_s", "compute_cpu_s",
                     "host_speedup", "sim_s", "N", "mean_loss_last"});
  std::vector<int> sweep;
  for (const int candidate : {1, 2, static_cast<int>(hardware),
                              2 * static_cast<int>(hardware)}) {
    if (std::find(sweep.begin(), sweep.end(), candidate) == sweep.end()) {
      sweep.push_back(candidate);
    }
  }
  int baseline_epochs = 0;
  double baseline_loss = 0.0;
  bool deterministic = true;
  double best_speedup = 0.0;
  for (const int host_threads : sweep) {
    core::TrainConfig config = bench::make_config(options, ranks);
    config.strategy =
        core::StrategyConfig::rs_1bit(options.baseline_negatives);
    config.host_threads = host_threads;
    const auto report = bench::run_experiment(dataset, config);
    table.begin_row()
        .add(static_cast<std::int64_t>(report.host_threads))
        .add(report.wall_seconds, 3)
        .add(report.compute_cpu_seconds, 3)
        .add(report.host_speedup(), 2)
        .add(report.total_sim_seconds, 3)
        .add(static_cast<std::int64_t>(report.epochs))
        .add(report.epoch_log.back().mean_loss, 6);
    // Compare the deterministic outputs only: the epoch count and the loss
    // trajectory. sim_s is excluded on purpose — it embeds measured
    // thread-CPU time, which jitters between any two runs.
    if (baseline_epochs == 0) {
      baseline_epochs = report.epochs;
      baseline_loss = report.epoch_log.back().mean_loss;
    } else if (report.epochs != baseline_epochs ||
               report.epoch_log.back().mean_loss != baseline_loss) {
      deterministic = false;
      std::fprintf(stderr,
                   "[bench] WARNING: host_threads=%d perturbed the "
                   "simulation — determinism violation\n",
                   host_threads);
    }
    best_speedup = std::max(best_speedup, report.host_speedup());
  }
  bench::emit(table,
              "Host pool sweep (results identical, wall time varies)",
              options.csv);
  // Only pool-size-independent outputs are gateable: the sweep itself
  // depends on the host's hardware-thread count.
  reporter.flag("deterministic_across_pool_sizes", deterministic);
  reporter.count("epochs", static_cast<std::uint64_t>(baseline_epochs));
  reporter.set("final_mean_loss", baseline_loss);
  reporter.set("best_host_speedup", best_speedup);
  return reporter.write() ? 0 : 1;
}
