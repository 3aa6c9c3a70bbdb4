// Figure 6 — relation partition on top of RS + 1-bit quantization:
//   (a) convergence (TCA vs epoch) with vs without partition on FB15K-like
//   (b) epoch time vs nodes with vs without partition on FB250K-like
//
// Expected shapes (paper): with partition the convergence curve improves
// (relation gradients stay full precision, unquantized), and the epoch
// time gap grows with the node count (one collective eliminated).
#include <iostream>

#include "harness/harness.hpp"

using namespace dynkge;

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  obs::BenchReporter reporter("fig6_relation_partition",
                              args.get_string("bench-json", ""));
  // (a) convergence on FB15K-like, 2 nodes.
  {
    const auto options = bench::parse_options(argc, argv, "fb15k", {2});
    const kge::Dataset dataset = bench::make_dataset(options);
    bench::print_banner(
        "Figure 6a: relation partition - convergence on FB15K-like",
        "RS+1-bit converges better once relation gradients stay local and "
        "full precision",
        options, dataset);

    std::vector<core::TrainReport> reports;
    for (const bool with_rp : {false, true}) {
      core::TrainConfig config =
          bench::make_config(options, static_cast<int>(options.nodes[0]));
      config.strategy =
          core::StrategyConfig::rs_1bit(options.baseline_negatives);
      config.strategy.relation_partition = with_rp;
      reports.push_back(bench::run_experiment(dataset, config));
    }
    const std::size_t longest =
        std::max(reports[0].epoch_log.size(), reports[1].epoch_log.size());
    util::Table curve({"epoch", "without partition TCA", "with partition TCA"});
    const std::size_t stride = std::max<std::size_t>(1, longest / 20);
    for (std::size_t epoch = 0; epoch < longest; epoch += stride) {
      curve.begin_row().add(static_cast<std::int64_t>(epoch));
      for (const auto& report : reports) {
        if (epoch < report.epoch_log.size()) {
          curve.add(report.epoch_log[epoch].val_accuracy, 1);
        } else {
          curve.add("-");
        }
      }
    }
    bench::emit(curve, "Figure 6a (reproduced): TCA vs epoch", options.csv);
    std::cout << "Finals: without RP TCA=" << reports[0].tca
              << " MRR=" << reports[0].ranking.mrr
              << " | with RP TCA=" << reports[1].tca
              << " MRR=" << reports[1].ranking.mrr << "\n\n";
    bench::context_from(reporter, options);
    const char* keys[] = {"fb15k.without_rp", "fb15k.with_rp"};
    for (int v = 0; v < 2; ++v) {
      const std::string key = keys[v];
      reporter.count(key + ".epochs",
                     static_cast<std::uint64_t>(reports[v].epochs));
      reporter.set(key + ".tca", reports[v].tca);
      reporter.set(key + ".mrr", reports[v].ranking.mrr);
    }
  }

  // (b) epoch time vs nodes on FB250K-like.
  {
    const auto options =
        bench::parse_options(argc, argv, "fb250k", {1, 2, 4, 8, 16});
    const kge::Dataset dataset = bench::make_dataset(options);
    bench::print_banner(
        "Figure 6b: relation partition - epoch time on FB250K-like",
        "the epoch-time saving from eliminating the relation collective "
        "grows with the node count",
        options, dataset);
    util::Table table({"nodes", "without RP s/epoch", "with RP s/epoch",
                       "saving %"});
    for (const std::int64_t nodes : options.nodes) {
      double epoch_time[2];
      for (const bool with_rp : {false, true}) {
        core::TrainConfig config =
            bench::make_config(options, static_cast<int>(nodes));
        config.strategy =
            core::StrategyConfig::rs_1bit(options.baseline_negatives);
        config.strategy.relation_partition = with_rp;
        const auto report = bench::run_experiment(dataset, config);
        epoch_time[with_rp] = report.mean_epoch_seconds();
      }
      const std::string key = "fb250k.n" + std::to_string(nodes);
      reporter.set(key + ".without_rp.epoch_seconds", epoch_time[0]);
      reporter.set(key + ".with_rp.epoch_seconds", epoch_time[1]);
      reporter.set(key + ".saving_pct",
                   100.0 * (epoch_time[0] - epoch_time[1]) /
                       std::max(1e-12, epoch_time[0]));
      table.begin_row()
          .add(nodes)
          .add(epoch_time[0], 4)
          .add(epoch_time[1], 4)
          .add(100.0 * (epoch_time[0] - epoch_time[1]) /
                   std::max(1e-12, epoch_time[0]),
               1);
    }
    bench::emit(table, "Figure 6b (reproduced): epoch time vs nodes",
                options.csv);
  }
  return reporter.write() ? 0 : 1;
}
