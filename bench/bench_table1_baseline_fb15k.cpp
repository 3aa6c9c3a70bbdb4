// Table 1 — baseline ComplEx training on FB15K(-like): total training
// time, epochs, TCA and MRR for all-reduce vs all-gather over 1..8 nodes.
//
// Expected shape (paper): all-reduce beats all-gather at every node count
// on this small dataset (small gradient matrix -> low sparsity), epochs
// trend upward with node count, accuracy roughly flat.
#include <iostream>

#include "harness/harness.hpp"
#include "harness/paper_reference.hpp"

using namespace dynkge;
namespace paper = dynkge::bench::paper;

int main(int argc, char** argv) {
  const auto options =
      bench::parse_options(argc, argv, "fb15k", {1, 2, 4, 8});
  obs::BenchReporter reporter("table1_baseline_fb15k", options.bench_json);
  bench::context_from(reporter, options);
  const kge::Dataset dataset = bench::make_dataset(options);
  bench::print_banner(
      "Table 1: baseline results on the FB15K-like dataset",
      "all-reduce is always faster than all-gather on the small dataset; "
      "epoch count grows with node count",
      options, dataset);

  util::Table table({"nodes", "method", "TT(sim s)", "N", "TCA", "MRR",
                     "paper TT(h)", "paper N", "paper TCA", "paper MRR"});

  for (const std::int64_t nodes : options.nodes) {
    const paper::BaselineRow* reference = nullptr;
    for (const auto& row : paper::kTable1Fb15k) {
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
    }
  }

  bench::emit(table, "Table 1 (reproduced): FB15K-like baseline",
              options.csv);
  return reporter.write() ? 0 : 1;
}
