// Table 2 — baseline ComplEx training on FB250K(-like): total training
// time, epochs, TCA and MRR for all-reduce vs all-gather over 1..16 nodes.
//
// Expected shape (paper): all-gather wins up to ~4 nodes, all-reduce wins
// beyond (the gathered row volume grows with node count while the dense
// all-reduce volume saturates); epochs grow with node count.
#include <iostream>

#include "harness/harness.hpp"

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

  const auto reports = bench::run_baseline_table(
      options, dataset, paper::kTable2Fb250k, reporter,
      "Table 2 (reproduced): FB250K-like baseline");
  // Mean epoch seconds [2 nodes / most nodes][all-reduce / all-gather].
  double crossover_check[2][2] = {{0, 0}, {0, 0}};
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const std::int64_t nodes = options.nodes[i / 2];
    const double seconds = reports[i].mean_epoch_seconds();
    if (nodes == 2) crossover_check[0][i % 2] = seconds;
    if (nodes == options.nodes.back()) crossover_check[1][i % 2] = seconds;
  }
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
