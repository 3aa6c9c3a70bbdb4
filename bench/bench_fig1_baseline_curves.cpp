// Figure 1 — the four baseline curves:
//   (a) total training time vs nodes on FB15K
//   (b) total training time vs nodes on FB250K
//   (c) number of epochs vs nodes on FB250K
//   (d) epoch time vs nodes on FB250K
//
// Expected shapes (paper): 1a all-reduce below all-gather everywhere;
// 1b crossover around 4 nodes; 1c epochs rise with nodes for both methods;
// 1d all-gather epoch time overtakes all-reduce as nodes grow.
#include <iostream>

#include "harness/harness.hpp"

using namespace dynkge;

namespace {

void sweep(const bench::HarnessOptions& options, const kge::Dataset& dataset,
           obs::BenchReporter& reporter, const std::string& prefix,
           util::Table& tt, util::Table& epochs, util::Table& epoch_time) {
  for (const std::int64_t nodes : options.nodes) {
    double tt_row[2], n_row[2], et_row[2];
    for (const bool allgather : {false, true}) {
      core::TrainConfig config =
          bench::make_config(options, static_cast<int>(nodes));
      config.strategy =
          allgather
              ? core::StrategyConfig::baseline_allgather(
                    options.baseline_negatives)
              : core::StrategyConfig::baseline_allreduce(
                    options.baseline_negatives);
      const auto report = bench::run_experiment(dataset, config);
      tt_row[allgather] = report.total_sim_seconds;
      n_row[allgather] = report.epochs;
      et_row[allgather] = report.mean_epoch_seconds();
      const std::string key = prefix + ".n" + std::to_string(nodes) + "." +
                              (allgather ? "allgather" : "allreduce");
      reporter.set(key + ".tt_sim_seconds", report.total_sim_seconds);
      reporter.count(key + ".epochs",
                     static_cast<std::uint64_t>(report.epochs));
      reporter.set(key + ".epoch_seconds", report.mean_epoch_seconds());
    }
    tt.begin_row().add(nodes).add(tt_row[0], 3).add(tt_row[1], 3);
    epochs.begin_row()
        .add(nodes)
        .add(static_cast<std::int64_t>(n_row[0]))
        .add(static_cast<std::int64_t>(n_row[1]));
    epoch_time.begin_row().add(nodes).add(et_row[0], 4).add(et_row[1], 4);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  obs::BenchReporter reporter("fig1_baseline_curves",
                              args.get_string("bench-json", ""));
  // FB15K sweep (figure 1a).
  {
    const auto options =
        bench::parse_options(argc, argv, "fb15k", {1, 2, 4, 8});
    const kge::Dataset dataset = bench::make_dataset(options);
    bench::print_banner(
        "Figure 1a: baseline total training time on FB15K-like",
        "all-reduce is consistently below all-gather on the small dataset",
        options, dataset);
    util::Table tt({"nodes", "allreduce TT(s)", "allgather TT(s)"});
    util::Table epochs({"nodes", "allreduce N", "allgather N"});
    util::Table epoch_time({"nodes", "allreduce s/epoch", "allgather s/epoch"});
    bench::context_from(reporter, options);
    sweep(options, dataset, reporter, "fb15k", tt, epochs, epoch_time);
    bench::emit(tt, "Figure 1a (reproduced): TT on FB15K-like", options.csv);
  }

  // FB250K sweeps (figures 1b, 1c, 1d).
  {
    const auto options =
        bench::parse_options(argc, argv, "fb250k", {1, 2, 4, 8, 16});
    const kge::Dataset dataset = bench::make_dataset(options);
    bench::print_banner(
        "Figure 1b/1c/1d: baseline curves on FB250K-like",
        "TT crossover near 4 nodes; epochs rise with nodes; all-gather "
        "epoch time overtakes all-reduce at high node counts",
        options, dataset);
    util::Table tt({"nodes", "allreduce TT(s)", "allgather TT(s)"});
    util::Table epochs({"nodes", "allreduce N", "allgather N"});
    util::Table epoch_time({"nodes", "allreduce s/epoch", "allgather s/epoch"});
    sweep(options, dataset, reporter, "fb250k", tt, epochs, epoch_time);
    bench::emit(tt, "Figure 1b (reproduced): TT on FB250K-like", options.csv);
    bench::emit(epochs, "Figure 1c (reproduced): epochs on FB250K-like",
                options.csv);
    bench::emit(epoch_time,
                "Figure 1d (reproduced): epoch time on FB250K-like",
                options.csv);
  }
  return reporter.write() ? 0 : 1;
}
