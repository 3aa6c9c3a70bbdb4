// Figure 9 — all methods on FB250K-like over 1..16 nodes:
//   {allreduce, allgather, DRS, DRS+1-bit, DRS+1-bit+RP+SS}
//   (a) total training time, (b) epochs, (c) MRR;
// its all-reduce and all-gather runs are also Table 2 (TT, epochs, TCA and
// MRR beside the paper's rows), Figure 1b (in 9a), 1c (in 9b) and 1d (their
// epoch times).
//
// Expected shapes (paper): every dynamic method beats both baselines on
// time; the combined method wins at small node counts and ties DRS+1-bit
// at large ones; MRR of DRS / DRS+1-bit degrades with node count while
// the combined method holds it up (+17.5% average); after quantization
// the dynamic selector runs ~60% fewer all-reduce epochs. Baselines:
// all-gather wins up to ~4 nodes and all-reduce beyond (the gathered row
// volume grows with node count while the dense all-reduce volume
// saturates), so all-gather's epoch time overtakes all-reduce's; epochs
// grow with node count.
#include <iostream>

#include "harness/harness.hpp"

using namespace dynkge;
namespace paper = dynkge::bench::paper;

int main(int argc, char** argv) {
  const auto options =
      bench::parse_options(argc, argv, "fb250k", {1, 2, 4, 8, 16});
  obs::BenchReporter reporter("fig9_combined_fb250k", options.bench_json);
  bench::context_from(reporter, options);
  const kge::Dataset dataset = bench::make_dataset(options);
  bench::print_banner(
      "Figure 9 (with Table 2 and Figures 1b-1d): combined methods on "
      "FB250K-like",
      "DRS+1-bit+RP+SS gives the largest time cuts and holds MRR up while "
      "plain quantization degrades it at scale; all-gather wins at <=4 "
      "nodes, all-reduce at >=8 nodes",
      options, dataset);

  const int negatives = options.baseline_negatives;
  const std::vector<bench::Method> methods = {
      {"allreduce", "allreduce",
       core::StrategyConfig::baseline_allreduce(negatives)},
      {"allgather", "allgather",
       core::StrategyConfig::baseline_allgather(negatives)},
      {"DRS", "drs", core::StrategyConfig::drs(negatives)},
      {"DRS+1-bit", "drs_1bit", core::StrategyConfig::drs_1bit(negatives)},
      {"DRS+1-bit+RP+SS", "drs_1bit_rp_ss",
       core::StrategyConfig::drs_1bit_rp_ss(options.ss_sampled,
                                            options.ss_used)},
  };
  const auto reports = bench::run_combined_figure(options, dataset, methods,
                                                 reporter, paper::kFigure9);

  // Figure 1d and Table 2's crossover, from the baseline runs' mean epoch
  // seconds [2 nodes / most nodes][all-reduce / all-gather].
  util::Table epoch_time({"nodes", "allreduce s/epoch", "allgather s/epoch"});
  double crossover_check[2][2] = {{0, 0}, {0, 0}};
  for (std::size_t n = 0; n < options.nodes.size(); ++n) {
    const std::int64_t nodes = options.nodes[n];
    epoch_time.begin_row().add(nodes);
    for (const int allgather : {0, 1}) {
      const double seconds =
          reports[n * methods.size() + allgather].mean_epoch_seconds();
      epoch_time.add(seconds, 4);
      if (nodes == 2) crossover_check[0][allgather] = seconds;
      if (nodes == options.nodes.back()) {
        crossover_check[1][allgather] = seconds;
      }
    }
  }
  bench::emit(epoch_time,
              "Figure 1d (reproduced): epoch time of Figure 9's baseline runs",
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

  // The dynamic selector's all-reduce share, DRS (method 2) vs DRS+1-bit
  // (method 3), averaged over the multi-node runs.
  double drs_frac = 0.0, quant_frac = 0.0;
  int fraction_samples = 0;
  for (std::size_t n = 0; n < options.nodes.size(); ++n) {
    if (options.nodes[n] <= 1) continue;
    drs_frac += reports[n * methods.size() + 2].allreduce_fraction;
    quant_frac += reports[n * methods.size() + 3].allreduce_fraction;
    ++fraction_samples;
  }
  if (fraction_samples > 0) {
    drs_frac /= fraction_samples;
    quant_frac /= fraction_samples;
    std::cout << "Dynamic-selector all-reduce share (multi-node mean): DRS="
              << drs_frac << " DRS+1-bit=" << quant_frac
              << "  (paper section 4.3: quantization cuts all-reduce "
                 "communications ~"
              << paper::kAllReduceReductionPct << "%)\n";
    reporter.set("drs_allreduce_fraction", drs_frac);
    reporter.set("drs_1bit_allreduce_fraction", quant_frac);
  }
  return reporter.write() ? 0 : 1;
}
