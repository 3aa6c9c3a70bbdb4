// Ablation — the two feedback mechanisms the paper's related work cites
// but its final recipe omits:
//
//  * residual accumulation for dropped gradient rows (Aji & Heafield
//    2017) on top of random selection, and
//  * error feedback for quantization (Karimireddy et al. 2019), which is
//    only stable with the *mean* 1-bit scale: the max-scale quantizer the
//    paper picked is not a contraction (decoded magnitudes exceed the
//    inputs), so its residuals grow instead of shrinking.
//
// Reported: convergence and accuracy with each mechanism on and off.
#include <iostream>

#include "harness/harness.hpp"

using namespace dynkge;

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv, "fb15k", {2});
  obs::BenchReporter reporter("ablation_feedback", options.bench_json);
  bench::context_from(reporter, options);
  const kge::Dataset dataset = bench::make_dataset(options);
  bench::print_banner(
      "Ablation: gradient feedback mechanisms",
      "selection residuals recover dropped-row signal; quantization error "
      "feedback requires the mean scale (max is not a contraction)",
      options, dataset);

  struct Variant {
    const char* name;
    const char* key;  ///< metric-name slug for the --bench-json block
    core::StrategyConfig strategy;
  };
  std::vector<Variant> variants;
  {
    core::StrategyConfig s = core::StrategyConfig::rs(options.baseline_negatives);
    variants.push_back({"RS", "rs", s});
    s.selection_residual = true;
    variants.push_back({"RS + selection residuals", "rs_residual", s});
  }
  {
    core::StrategyConfig s =
        core::StrategyConfig::rs_1bit(options.baseline_negatives);
    variants.push_back({"RS+1-bit (max scale)", "onebit_max", s});
    s.error_feedback = true;
    variants.push_back({"RS+1-bit (max) + EF [divergent]", "onebit_max_ef", s});
    s.one_bit_scale = core::OneBitScale::kMean;
    s.error_feedback = false;
    variants.push_back({"RS+1-bit (mean scale)", "onebit_mean", s});
    s.error_feedback = true;
    variants.push_back({"RS+1-bit (mean) + EF", "onebit_mean_ef", s});
  }

  util::Table table({"variant", "N", "final val", "TCA", "MRR"});
  for (const auto& variant : variants) {
    core::TrainConfig config =
        bench::make_config(options, static_cast<int>(options.nodes[0]));
    config.strategy = variant.strategy;
    const auto report = bench::run_experiment(dataset, config);
    table.begin_row()
        .add(variant.name)
        .add(static_cast<std::int64_t>(report.epochs))
        .add(report.final_val_accuracy, 1)
        .add(report.tca, 1)
        .add(report.ranking.mrr, 3);
    const std::string key = variant.key;
    reporter.count(key + ".epochs",
                   static_cast<std::uint64_t>(report.epochs));
    reporter.set(key + ".final_val", report.final_val_accuracy);
    reporter.set(key + ".tca", report.tca);
    reporter.set(key + ".mrr", report.ranking.mrr);
  }
  bench::emit(table, "Feedback mechanism ablation (2 nodes)", options.csv);
  return reporter.write() ? 0 : 1;
}
