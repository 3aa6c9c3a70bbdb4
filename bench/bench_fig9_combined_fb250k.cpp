// Figure 9 — all methods on FB250K-like over 1..16 nodes:
//   {allreduce, allgather, DRS, DRS+1-bit, DRS+1-bit+RP+SS}
//   (a) total training time, (b) epochs, (c) MRR.
//
// Expected shapes (paper): every dynamic method beats both baselines on
// time; the combined method wins at small node counts and ties DRS+1-bit
// at large ones; MRR of DRS / DRS+1-bit degrades with node count while
// the combined method holds it up (+17.5% average); after quantization
// the dynamic selector runs ~60% fewer all-reduce epochs.
#include <iostream>

#include "harness/harness.hpp"
#include "harness/paper_reference.hpp"

using namespace dynkge;
namespace paper = dynkge::bench::paper;

int main(int argc, char** argv) {
  const auto options =
      bench::parse_options(argc, argv, "fb250k", {1, 2, 4, 8, 16});
  obs::BenchReporter reporter("fig9_combined_fb250k", options.bench_json);
  bench::context_from(reporter, options);
  const kge::Dataset dataset = bench::make_dataset(options);
  bench::print_banner(
      "Figure 9: combined methods on FB250K-like",
      "DRS+1-bit+RP+SS gives the largest time cuts and holds MRR up while "
      "plain quantization degrades it at scale",
      options, dataset);

  struct Method {
    const char* name;
    const char* key;  ///< metric-name slug for the --bench-json block
    core::StrategyConfig strategy;
  };
  const std::vector<Method> methods = {
      {"allreduce", "allreduce",
       core::StrategyConfig::baseline_allreduce(options.baseline_negatives)},
      {"allgather", "allgather",
       core::StrategyConfig::baseline_allgather(options.baseline_negatives)},
      {"DRS", "drs", core::StrategyConfig::drs(options.baseline_negatives)},
      {"DRS+1-bit", "drs_1bit",
       core::StrategyConfig::drs_1bit(options.baseline_negatives)},
      {"DRS+1-bit+RP+SS", "drs_1bit_rp_ss",
       core::StrategyConfig::drs_1bit_rp_ss(options.ss_sampled,
                                            options.ss_used)},
  };

  util::Table tt({"nodes", "allreduce", "allgather", "DRS", "DRS+1-bit",
                  "DRS+1-bit+RP+SS"});
  util::Table epochs = tt;
  util::Table mrr = tt;

  double combined_tt_sum = 0.0, allreduce_tt_sum = 0.0;
  double combined_mrr_sum = 0.0, allreduce_mrr_sum = 0.0;
  double drs_allreduce_fraction = 0.0, drs_1bit_allreduce_fraction = 0.0;
  int fraction_samples = 0;

  for (const std::int64_t nodes : options.nodes) {
    tt.begin_row().add(nodes);
    epochs.begin_row().add(nodes);
    mrr.begin_row().add(nodes);
    for (const auto& method : methods) {
      core::TrainConfig config =
          bench::make_config(options, static_cast<int>(nodes));
      config.strategy = method.strategy;
      const auto report = bench::run_experiment(dataset, config);
      tt.add(report.total_sim_seconds, 3);
      epochs.add(static_cast<std::int64_t>(report.epochs));
      mrr.add(report.ranking.mrr, 3);
      const std::string key =
          "n" + std::to_string(nodes) + "." + method.key;
      reporter.set(key + ".tt_sim_seconds", report.total_sim_seconds);
      reporter.count(key + ".epochs",
                     static_cast<std::uint64_t>(report.epochs));
      reporter.set(key + ".mrr", report.ranking.mrr);
      if (std::string(method.name) == "allreduce") {
        allreduce_tt_sum += report.total_sim_seconds;
        allreduce_mrr_sum += report.ranking.mrr;
      }
      if (std::string(method.name) == "DRS+1-bit+RP+SS") {
        combined_tt_sum += report.total_sim_seconds;
        combined_mrr_sum += report.ranking.mrr;
      }
      if (nodes > 1) {
        if (std::string(method.name) == "DRS") {
          drs_allreduce_fraction += report.allreduce_fraction;
          ++fraction_samples;
        }
        if (std::string(method.name) == "DRS+1-bit") {
          drs_1bit_allreduce_fraction += report.allreduce_fraction;
        }
      }
    }
  }

  bench::emit(tt, "Figure 9a (reproduced): total training time (sim s)",
              options.csv);
  bench::emit(epochs, "Figure 9b (reproduced): epochs to convergence",
              options.csv);
  bench::emit(mrr, "Figure 9c (reproduced): MRR", options.csv);

  const double time_reduction =
      100.0 * (1.0 - combined_tt_sum / allreduce_tt_sum);
  const double mrr_gain =
      100.0 * (combined_mrr_sum / allreduce_mrr_sum - 1.0);
  std::cout << "Summary vs all-reduce baseline (averaged over node counts):\n"
            << "  training-time reduction: " << time_reduction
            << "%  (paper: " << paper::kFb250kTimeReductionPct << "%)\n"
            << "  MRR change: " << mrr_gain << "%  (paper: +"
            << paper::kFb250kMrrGainPct << "%)\n";
  if (fraction_samples > 0) {
    const double drs_frac = drs_allreduce_fraction / fraction_samples;
    const double quant_frac = drs_1bit_allreduce_fraction / fraction_samples;
    std::cout << "Dynamic-selector all-reduce share (multi-node mean): DRS="
              << drs_frac << " DRS+1-bit=" << quant_frac
              << "  (paper section 4.3: quantization cuts all-reduce "
                 "communications ~"
              << paper::kAllReduceReductionPct << "%)\n";
    reporter.set("drs_allreduce_fraction", drs_frac);
    reporter.set("drs_1bit_allreduce_fraction", quant_frac);
  }
  reporter.set("time_reduction_pct", time_reduction);
  reporter.set("mrr_gain_pct", mrr_gain);
  reporter.flag("combined_saves_time", time_reduction > 0.0);
  return reporter.write() ? 0 : 1;
}
