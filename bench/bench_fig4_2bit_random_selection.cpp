// Figure 4 — 2-bit quantization with and without random selection on the
// FB15K-like dataset: convergence (validation TCA per epoch).
//
// Expected shape (paper): adding random selection on top of 2-bit
// quantization does not change the convergence curve.
#include <iostream>

#include "harness/harness.hpp"

using namespace dynkge;

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv, "fb15k", {2});
  obs::BenchReporter reporter("fig4_2bit_random_selection", options.bench_json);
  bench::context_from(reporter, options);
  const kge::Dataset dataset = bench::make_dataset(options);
  bench::print_banner(
      "Figure 4: 2-bit quantization with random selection",
      "2-bit quantization's convergence is unaffected by adding random "
      "selection",
      options, dataset);

  std::vector<core::TrainReport> reports;
  for (const bool with_rs : {false, true}) {
    core::TrainConfig config =
        bench::make_config(options, static_cast<int>(options.nodes[0]));
    config.strategy =
        core::StrategyConfig::baseline_allgather(options.baseline_negatives);
    config.strategy.quant = core::QuantMode::kTwoBit;
    if (with_rs) config.strategy.selection = core::SelectionMode::kBernoulli;
    reports.push_back(bench::run_experiment(dataset, config));
  }

  std::size_t longest =
      std::max(reports[0].epoch_log.size(), reports[1].epoch_log.size());
  util::Table curve({"epoch", "2-bit TCA", "2-bit+RS TCA"});
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
  bench::emit(curve, "Figure 4 (reproduced): TCA vs epoch", options.csv);

  std::cout << "Finals: 2-bit TCA=" << reports[0].tca
            << " MRR=" << reports[0].ranking.mrr
            << " | 2-bit+RS TCA=" << reports[1].tca
            << " MRR=" << reports[1].ranking.mrr << "\n"
            << "Shape check: |delta TCA| = "
            << std::abs(reports[0].tca - reports[1].tca)
            << (std::abs(reports[0].tca - reports[1].tca) < 3.0
                    ? "  -> curves overlap (paper agrees)\n"
                    : "  -> curves diverge\n");
  const char* keys[] = {"twobit", "twobit_rs"};
  for (int v = 0; v < 2; ++v) {
    const std::string key = keys[v];
    reporter.count(key + ".epochs",
                   static_cast<std::uint64_t>(reports[v].epochs));
    reporter.set(key + ".tca", reports[v].tca);
    reporter.set(key + ".mrr", reports[v].ranking.mrr);
  }
  reporter.set("tca_delta", std::abs(reports[0].tca - reports[1].tca));
  reporter.flag("curves_overlap",
                std::abs(reports[0].tca - reports[1].tca) < 3.0);
  return reporter.write() ? 0 : 1;
}
