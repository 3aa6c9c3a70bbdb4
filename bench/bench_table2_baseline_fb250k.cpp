// Table 2 — baseline ComplEx training on FB250K(-like): total training
// time, epochs, TCA and MRR for all-reduce vs all-gather over 1..16 nodes.
//
// Expected shape (paper): all-gather wins up to ~4 nodes, all-reduce wins
// beyond (the gathered row volume grows with node count while the dense
// all-reduce volume saturates); epochs grow with node count.
#include <iostream>

#include "harness/harness.hpp"
#include "harness/paper_reference.hpp"

using namespace dynkge;
namespace paper = dynkge::bench::paper;

int main(int argc, char** argv) {
  const auto options =
      bench::parse_options(argc, argv, "fb250k", {1, 2, 4, 8, 16});
  obs::BenchReporter reporter("table2_baseline_fb250k", options.bench_json);
  bench::context_from(reporter, options);
  const kge::Dataset dataset = bench::make_dataset(options);
  bench::print_banner(
      "Table 2: baseline results on the FB250K-like dataset",
      "all-gather wins at <=4 nodes, all-reduce wins at >=8 nodes "
      "(communication-volume crossover); epochs grow with node count",
      options, dataset);

  util::Table table({"nodes", "method", "TT(sim s)", "N", "TCA", "MRR",
                     "paper TT(h)", "paper N", "paper TCA", "paper MRR"});

  double crossover_check[2][2] = {{0, 0}, {0, 0}};  // [small/large][ar/ag]
  for (const std::int64_t nodes : options.nodes) {
    const paper::BaselineRow* reference = nullptr;
    for (const auto& row : paper::kTable2Fb250k) {
      if (row.nodes == nodes) reference = &row;
    }
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
      const std::string key = "n" + std::to_string(nodes) + "." +
                              (allgather ? "allgather" : "allreduce");
      reporter.set(key + ".tt_sim_seconds", report.total_sim_seconds);
      reporter.count(key + ".epochs",
                     static_cast<std::uint64_t>(report.epochs));
      reporter.set(key + ".tca", report.tca);
      reporter.set(key + ".mrr", report.ranking.mrr);
      table.begin_row()
          .add(nodes)
          .add(report.strategy_label)
          .add(report.total_sim_seconds, 3)
          .add(static_cast<std::int64_t>(report.epochs))
          .add(report.tca, 1)
          .add(report.ranking.mrr, 3);
      if (reference != nullptr) {
        table.add(allgather ? reference->allgather_tt_hours
                            : reference->allreduce_tt_hours,
                  2)
            .add(static_cast<std::int64_t>(allgather
                                               ? reference->allgather_epochs
                                               : reference->allreduce_epochs))
            .add(allgather ? reference->allgather_tca
                           : reference->allreduce_tca,
                 1)
            .add(allgather ? reference->allgather_mrr
                           : reference->allreduce_mrr,
                 2);
      } else {
        table.add("-").add("-").add("-").add("-");
      }
      if (nodes == 2) crossover_check[0][allgather] = report.mean_epoch_seconds();
      if (nodes == options.nodes.back()) {
        crossover_check[1][allgather] = report.mean_epoch_seconds();
      }
    }
  }

  bench::emit(table, "Table 2 (reproduced): FB250K-like baseline",
              options.csv);
  std::cout << "Crossover check (mean epoch seconds):\n"
            << "  2 nodes:  allreduce=" << crossover_check[0][0]
            << "  allgather=" << crossover_check[0][1]
            << (crossover_check[0][1] < crossover_check[0][0]
                    ? "  -> allgather wins (paper agrees)\n"
                    : "  -> allreduce wins\n")
            << "  " << options.nodes.back()
            << " nodes: allreduce=" << crossover_check[1][0]
            << "  allgather=" << crossover_check[1][1]
            << (crossover_check[1][0] < crossover_check[1][1]
                    ? "  -> allreduce wins (paper agrees)\n"
                    : "  -> allgather wins\n");
  reporter.flag("allgather_wins_at_2_nodes",
                crossover_check[0][1] < crossover_check[0][0]);
  reporter.flag("allreduce_wins_at_max_nodes",
                crossover_check[1][0] < crossover_check[1][1]);
  return reporter.write() ? 0 : 1;
}
