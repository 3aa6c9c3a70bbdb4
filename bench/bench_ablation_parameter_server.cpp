// Ablation — the paper's introduction motivates synchronous collectives
// by the parameter-server approach's server bottleneck ("communication
// bottleneck to the server ... all-to-all communication pattern that is
// not efficient"). This bench trains the same workload through all three
// transports and shows the PS epoch time growing with the worker count
// while the collective transports scale.
#include <iostream>

#include "harness/harness.hpp"

using namespace dynkge;

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  const auto options = bench::parse_options(args, "fb250k", {2, 4, 8, 16});
  bench::reject_unread(args);
  obs::BenchReporter reporter("ablation_parameter_server", options.bench_json);
  bench::context_from(reporter, options);
  const kge::Dataset dataset = bench::make_dataset(options);
  bench::print_banner(
      "Ablation: parameter server vs synchronous collectives",
      "the PS server link carries every worker's gradients, so its epoch "
      "time grows with the node count while ring all-reduce saturates",
      options, dataset);

  util::Table table({"nodes", "PS s/epoch", "allreduce s/epoch",
                     "allgather s/epoch", "PS comm s/epoch",
                     "allreduce comm s/epoch"});
  for (const std::int64_t nodes : options.nodes) {
    double epoch_time[3], comm_time[3];
    int idx = 0;
    for (const core::StrategyConfig& strategy :
         {core::StrategyConfig::baseline_parameter_server(
              options.baseline_negatives),
          core::StrategyConfig::baseline_allreduce(
              options.baseline_negatives),
          core::StrategyConfig::baseline_allgather(
              options.baseline_negatives)}) {
      core::TrainConfig config =
          bench::make_config(options, static_cast<int>(nodes));
      config.strategy = strategy;
      // Fixed-length runs: isolate the per-epoch communication pattern
      // from convergence differences.
      config.max_epochs = 12;
      config.lr.tolerance = 100;
      config.compute_final_metrics = false;
      const auto report = bench::run_experiment(dataset, config);
      epoch_time[idx] = report.mean_epoch_seconds();
      double comm = 0.0;
      for (const auto& record : report.epoch_log) {
        comm += record.comm_seconds;
      }
      comm_time[idx] = comm / report.epochs;
      ++idx;
    }
    std::string key = "n";
    key += std::to_string(nodes);
    const char* transports[] = {"param_server", "allreduce", "allgather"};
    for (int t = 0; t < 3; ++t) {
      reporter.set(key + "." + transports[t] + ".epoch_seconds",
                   epoch_time[t]);
      reporter.set(key + "." + transports[t] + ".comm_seconds",
                   comm_time[t]);
    }
    table.begin_row()
        .add(nodes)
        .add(epoch_time[0], 4)
        .add(epoch_time[1], 4)
        .add(epoch_time[2], 4)
        .add(comm_time[0], 4)
        .add(comm_time[1], 4);
  }
  bench::emit(table,
              "Parameter-server bottleneck (per-epoch seconds, fixed 12 "
              "epochs)",
              options.csv);
  return reporter.write() ? 0 : 1;
}
