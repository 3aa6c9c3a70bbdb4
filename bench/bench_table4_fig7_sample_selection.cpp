// Table 4 + Figure 7 — negative sample selection with 1-bit quantization
// on 2 nodes: TT, N, MRR, TCA for ratios {1/1, 1/5, 1/10, 1/20, 1/30,
// 5/5, 10/10}.
//
// Expected shapes (paper): MRR grows with n for "1 out of n" and
// saturates; training time grows with n but stays far below "n out of n";
// "1 out of n" avoids the class imbalance that degrades "m out of m".
#include <iostream>

#include "harness/harness.hpp"
#include "harness/paper_reference.hpp"

using namespace dynkge;
namespace paper = dynkge::bench::paper;

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv, "fb15k", {2});
  obs::BenchReporter reporter("table4_fig7_sample_selection",
                              options.bench_json);
  bench::context_from(reporter, options);
  const kge::Dataset dataset = bench::make_dataset(options);
  bench::print_banner(
      "Table 4 / Figure 7: negative sample selection (with 1-bit quant)",
      "for 1-out-of-n, MRR rises with n and saturates; time rises with n "
      "but stays well below n-out-of-n",
      options, dataset);

  util::Table table({"ratio", "TT(sim s)", "N", "MRR", "TCA",
                     "paper TT(h)", "paper N", "paper MRR", "paper TCA"});

  double tt_1of10 = 0.0, tt_10of10 = 0.0;
  double mrr_1of1 = 0.0, mrr_1of20 = 0.0;
  std::vector<std::pair<std::string, core::TrainReport>> curve_runs;
  for (const auto& row : paper::kTable4) {
    core::TrainConfig config =
        bench::make_config(options, static_cast<int>(options.nodes[0]));
    config.strategy = core::StrategyConfig::rs_1bit(row.sampled);
    config.strategy.negatives_used = row.used;
    const auto report = bench::run_experiment(dataset, config);
    std::string key = "r";
    key += std::to_string(row.used) + "_of_" + std::to_string(row.sampled);
    reporter.set(key + ".tt_sim_seconds", report.total_sim_seconds);
    reporter.count(key + ".epochs",
                   static_cast<std::uint64_t>(report.epochs));
    reporter.set(key + ".mrr", report.ranking.mrr);
    reporter.set(key + ".tca", report.tca);
    const std::string ratio = row.ratio;
    if (ratio == "1 out of 1" || ratio == "1 out of 10" ||
        ratio == "10 out of 10") {
      curve_runs.emplace_back(ratio, report);
    }
    table.begin_row()
        .add(row.ratio)
        .add(report.total_sim_seconds, 3)
        .add(static_cast<std::int64_t>(report.epochs))
        .add(report.ranking.mrr, 3)
        .add(report.tca, 1)
        .add(row.tt_hours, 2)
        .add(static_cast<std::int64_t>(row.epochs))
        .add(row.mrr, 3)
        .add(row.tca, 1);
    if (std::string(row.ratio) == "1 out of 10") {
      tt_1of10 = report.total_sim_seconds;
    }
    if (std::string(row.ratio) == "10 out of 10") {
      tt_10of10 = report.total_sim_seconds;
    }
    if (std::string(row.ratio) == "1 out of 1") mrr_1of1 = report.ranking.mrr;
    if (std::string(row.ratio) == "1 out of 20") {
      mrr_1of20 = report.ranking.mrr;
    }
  }
  bench::emit(table,
              "Table 4 (reproduced): sample selection with 1-bit, 2 nodes",
              options.csv);

  // Figure 7a: convergence curves for representative ratios.
  std::vector<const core::TrainReport*> runs;
  for (const auto& [ratio, report] : curve_runs) runs.push_back(&report);
  const util::Table curve = bench::tca_curve(
      {"epoch", "1 of 1 TCA", "1 of 10 TCA", "10 of 10 TCA"}, runs);
  bench::emit(curve, "Figure 7a (reproduced): convergence per ratio",
              options.csv);

  std::cout << "Shape checks:\n"
            << "  TT(1 of 10) < TT(10 of 10): " << tt_1of10 << " vs "
            << tt_10of10
            << (tt_1of10 < tt_10of10 ? "  -> holds (paper agrees)\n"
                                     : "  -> does not hold\n")
            << "  MRR(1 of 20) > MRR(1 of 1): " << mrr_1of20 << " vs "
            << mrr_1of1
            << (mrr_1of20 > mrr_1of1 ? "  -> holds (paper agrees)\n"
                                     : "  -> does not hold\n");
  reporter.flag("ss_time_win", tt_1of10 < tt_10of10);
  reporter.flag("mrr_rises_with_pool", mrr_1of20 > mrr_1of1);
  return reporter.write() ? 0 : 1;
}
