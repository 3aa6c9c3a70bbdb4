// Table 1 — baseline ComplEx training on FB15K(-like): total training
// time, epochs, TCA and MRR for all-reduce vs all-gather over 1..8 nodes.
//
// Expected shape (paper): all-reduce beats all-gather at every node count
// on this small dataset (small gradient matrix -> low sparsity), epochs
// trend upward with node count, accuracy roughly flat.
#include "harness/harness.hpp"

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

  bench::run_baseline_table(options, dataset, paper::kTable1Fb15k, reporter,
                            "Table 1 (reproduced): FB15K-like baseline");
  return reporter.write() ? 0 : 1;
}
