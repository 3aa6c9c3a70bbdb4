// Figure 8 — all methods on FB15K-like over 1..8 nodes:
//   {allreduce, allgather, RS, RS+1-bit, RS+1-bit+RP+SS}
//   (a) total training time, (b) epochs, (c) MRR.
//
// Expected shapes (paper): the combined method has the lowest training
// time at every node count (65.2% average reduction) and the highest MRR
// (+17.7% average); RS alone tracks the baseline MRR; 1-bit alone dents
// MRR slightly at high node counts.
#include <iostream>

#include "harness/harness.hpp"
#include "harness/paper_reference.hpp"

using namespace dynkge;
namespace paper = dynkge::bench::paper;

int main(int argc, char** argv) {
  const auto options =
      bench::parse_options(argc, argv, "fb15k", {1, 2, 4, 8});
  obs::BenchReporter reporter("fig8_combined_fb15k", options.bench_json);
  bench::context_from(reporter, options);
  const kge::Dataset dataset = bench::make_dataset(options);
  bench::print_banner(
      "Figure 8: combined methods on FB15K-like",
      "RS+1-bit+RP+SS yields the lowest training time and the highest MRR "
      "at every node count",
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
      {"RS", "rs", core::StrategyConfig::rs(options.baseline_negatives)},
      {"RS+1-bit", "rs_1bit",
       core::StrategyConfig::rs_1bit(options.baseline_negatives)},
      {"RS+1-bit+RP+SS", "rs_1bit_rp_ss",
       core::StrategyConfig::rs_1bit_rp_ss(options.ss_sampled,
                                           options.ss_used)},
  };

  util::Table tt({"nodes", "allreduce", "allgather", "RS", "RS+1-bit",
                  "RS+1-bit+RP+SS"});
  util::Table epochs = tt;
  util::Table mrr = tt;

  double combined_tt_sum = 0.0, allreduce_tt_sum = 0.0;
  double combined_mrr_sum = 0.0, allreduce_mrr_sum = 0.0;
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
      if (std::string(method.name) == "RS+1-bit+RP+SS") {
        combined_tt_sum += report.total_sim_seconds;
        combined_mrr_sum += report.ranking.mrr;
      }
    }
  }

  bench::emit(tt, "Figure 8a (reproduced): total training time (sim s)",
              options.csv);
  bench::emit(epochs, "Figure 8b (reproduced): epochs to convergence",
              options.csv);
  bench::emit(mrr, "Figure 8c (reproduced): MRR", options.csv);

  const double time_reduction =
      100.0 * (1.0 - combined_tt_sum / allreduce_tt_sum);
  const double mrr_gain =
      100.0 * (combined_mrr_sum / allreduce_mrr_sum - 1.0);
  std::cout << "Summary vs all-reduce baseline (averaged over node counts):\n"
            << "  training-time reduction: " << time_reduction
            << "%  (paper: " << paper::kFb15kTimeReductionPct << "%)\n"
            << "  MRR change: " << mrr_gain << "%  (paper: +"
            << paper::kFb15kMrrGainPct << "%)\n";
  reporter.set("time_reduction_pct", time_reduction);
  reporter.set("mrr_gain_pct", mrr_gain);
  reporter.flag("combined_saves_time", time_reduction > 0.0);
  return reporter.write() ? 0 : 1;
}
