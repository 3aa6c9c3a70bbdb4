// Every strategy comparison on the FB250K-like dataset, from one table of
// runs:
//   Figure 9  {allreduce, allgather, DRS, DRS+1-bit, DRS+1-bit+RP+SS} over
//             the --nodes sweep (1..16): (a) total training time,
//             (b) epochs, (c) MRR; its all-reduce and all-gather runs are
//             also Table 2 (TT, epochs, TCA and MRR beside the paper's
//             rows), Figure 1b (in 9a), 1c (in 9b) and 1d (their epoch
//             times)
//   Figure 6b relation partition on top of RS+1-bit: epoch time over the
//             --nodes sweep
// and the parameter-server ablation of the paper's introduction at every
// --nodes value above 1. Its runs train a fixed 12 epochs, so they stay
// outside the table. Every key is reported under its figure's prefix
// ("fig9.n2.drs.mrr", "fig6.fb250k.n4.saving_pct",
// "ps.n8.param_server.comm_seconds").
//
// Expected shapes (paper):
//   Fig 9: every dynamic method beats both baselines on time; the combined
//          method wins at small node counts and ties DRS+1-bit at large
//          ones; MRR of DRS / DRS+1-bit degrades with node count while the
//          combined method holds it up (+17.5% average); after
//          quantization the dynamic selector runs ~60% fewer all-reduce
//          epochs. Baselines: all-gather wins up to ~4 nodes and
//          all-reduce beyond (the gathered row volume grows with node count
//          while the dense all-reduce volume saturates), so all-gather's
//          epoch time overtakes all-reduce's; epochs grow with node count.
//   Fig 6b: the epoch-time gap from eliminating the relation collective
//          grows with the node count.
//   Parameter server ("communication bottleneck to the server ... all-to-
//          all communication pattern that is not efficient"): the server
//          link carries every worker's gradients, so the PS epoch time
//          grows with the worker count while the collectives scale.
#include <algorithm>
#include <iostream>

#include "harness/harness.hpp"

using namespace dynkge;
namespace paper = dynkge::bench::paper;

namespace {

void figure9(bench::Runs& runs, obs::BenchReporter& reporter) {
  const bench::HarnessOptions& options = runs.options();
  bench::print_banner(
      "Figure 9 (with Table 2 and Figures 1b-1d): combined methods on "
      "FB250K-like",
      "DRS+1-bit+RP+SS gives the largest time cuts and holds MRR up while "
      "plain quantization degrades it at scale; all-gather wins at <=4 "
      "nodes, all-reduce at >=8 nodes",
      options, runs.dataset());

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
  bench::run_combined_figure(runs, methods, reporter, "fig9.",
                             paper::kFigure9);
  // The figure's runs, by node count and method index.
  const auto report = [&](std::int64_t nodes,
                          std::size_t method) -> const core::TrainReport& {
    return runs.get(nodes, methods[method].strategy);
  };

  // Figure 1d and Table 2's crossover, from the baseline runs' mean epoch
  // seconds.
  util::Table epoch_time({"nodes", "allreduce s/epoch", "allgather s/epoch"});
  for (const std::int64_t nodes : options.nodes) {
    epoch_time.begin_row()
        .add(nodes)
        .add(report(nodes, 0).mean_epoch_seconds(), 4)
        .add(report(nodes, 1).mean_epoch_seconds(), 4);
  }
  bench::emit(epoch_time,
              "Figure 1d (reproduced): epoch time of Figure 9's baseline runs",
              options.csv);
  std::cout << "Crossover check (mean epoch seconds):\n";
  // The 2-node half only where the sweep has a 2-node run to read.
  if (std::find(options.nodes.begin(), options.nodes.end(), 2) !=
      options.nodes.end()) {
    const double allreduce = report(2, 0).mean_epoch_seconds();
    const double allgather = report(2, 1).mean_epoch_seconds();
    std::cout << "  2 nodes:  allreduce=" << allreduce
              << "  allgather=" << allgather
              << (allgather < allreduce ? "  -> allgather wins (paper agrees)\n"
                                        : "  -> allreduce wins\n");
    reporter.flag("fig9.allgather_wins_at_2_nodes", allgather < allreduce);
  }
  const std::int64_t most = options.nodes.back();
  const double allreduce = report(most, 0).mean_epoch_seconds();
  const double allgather = report(most, 1).mean_epoch_seconds();
  std::cout << "  " << most << " nodes: allreduce=" << allreduce
            << "  allgather=" << allgather
            << (allreduce < allgather ? "  -> allreduce wins (paper agrees)\n"
                                      : "  -> allgather wins\n");
  reporter.flag("fig9.allreduce_wins_at_max_nodes", allreduce < allgather);

  // The dynamic selector's all-reduce share, DRS (method 2) vs DRS+1-bit
  // (method 3), averaged over the multi-node runs.
  double drs_frac = 0.0, quant_frac = 0.0;
  int fraction_samples = 0;
  for (const std::int64_t nodes : options.nodes) {
    if (nodes <= 1) continue;
    drs_frac += report(nodes, 2).allreduce_fraction;
    quant_frac += report(nodes, 3).allreduce_fraction;
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
    reporter.set("fig9.drs_allreduce_fraction", drs_frac);
    reporter.set("fig9.drs_1bit_allreduce_fraction", quant_frac);
  }

  // Section 5.3's MRR shape: plain DRS+1-bit (method 3) loses MRR as nodes
  // are added, and RP+SS (method 4) recovers it at every node count.
  const double fewest_mrr = report(options.nodes.front(), 3).ranking.mrr;
  const double most_mrr = report(most, 3).ranking.mrr;
  bool recovers = true;
  for (const std::int64_t nodes : options.nodes) {
    recovers = recovers &&
               report(nodes, 4).ranking.mrr > report(nodes, 3).ranking.mrr;
  }
  std::cout << "MRR shape: DRS+1-bit " << fewest_mrr << " at "
            << options.nodes.front() << " node(s) -> " << most_mrr << " at "
            << most << " nodes"
            << (most_mrr < fewest_mrr ? " (falls; paper agrees)\n"
                                      : " (does not fall)\n")
            << "  DRS+1-bit+RP+SS beats DRS+1-bit at every node count: "
            << (recovers ? "yes (paper agrees)\n" : "no\n");
  reporter.flag("fig9.drs_1bit_mrr_falls_with_nodes", most_mrr < fewest_mrr);
  reporter.flag("fig9.rp_ss_recovers_mrr", recovers);
}

void figure6b(bench::Runs& runs, obs::BenchReporter& reporter) {
  const bench::HarnessOptions& options = runs.options();
  bench::print_banner(
      "Figure 6b: relation partition - epoch time on FB250K-like",
      "the epoch-time saving from eliminating the relation collective "
      "grows with the node count",
      options, runs.dataset());
  util::Table table({"nodes", "without RP s/epoch", "with RP s/epoch",
                     "saving %"});
  for (const std::int64_t nodes : options.nodes) {
    double epoch_time[2];
    for (const bool with_rp : {false, true}) {
      core::StrategyConfig strategy =
          core::StrategyConfig::rs_1bit(options.baseline_negatives);
      strategy.relation_partition = with_rp;
      epoch_time[with_rp] = runs.get(nodes, strategy).mean_epoch_seconds();
    }
    const double saving = 100.0 * (epoch_time[0] - epoch_time[1]) /
                          std::max(1e-12, epoch_time[0]);
    const std::string key = "fig6.fb250k.n" + std::to_string(nodes);
    reporter.set(key + ".without_rp.epoch_seconds", epoch_time[0]);
    reporter.set(key + ".with_rp.epoch_seconds", epoch_time[1]);
    reporter.set(key + ".saving_pct", saving);
    table.begin_row()
        .add(nodes)
        .add(epoch_time[0], 4)
        .add(epoch_time[1], 4)
        .add(saving, 1);
  }
  bench::emit(table, "Figure 6b (reproduced): epoch time vs nodes",
              options.csv);
}

void parameter_server_ablation(const bench::Runs& runs,
                               obs::BenchReporter& reporter) {
  const bench::HarnessOptions& options = runs.options();
  bench::print_banner(
      "Ablation: parameter server vs synchronous collectives",
      "the PS server link carries every worker's gradients, so its epoch "
      "time grows with the node count while ring all-reduce saturates",
      options, runs.dataset());

  const int negatives = options.baseline_negatives;
  const char* transports[] = {"param_server", "allreduce", "allgather"};
  util::Table table({"nodes", "PS s/epoch", "allreduce s/epoch",
                     "allgather s/epoch", "PS comm s/epoch",
                     "allreduce comm s/epoch"});
  for (const std::int64_t nodes : options.nodes) {
    if (nodes <= 1) continue;  // a server needs workers
    double epoch_time[3], comm_time[3];
    int t = 0;
    for (const core::StrategyConfig& strategy :
         {core::StrategyConfig::baseline_parameter_server(negatives),
          core::StrategyConfig::baseline_allreduce(negatives),
          core::StrategyConfig::baseline_allgather(negatives)}) {
      core::TrainConfig config =
          bench::make_config(options, static_cast<int>(nodes));
      config.strategy = strategy;
      // Fixed-length runs: isolate the per-epoch communication pattern
      // from convergence differences.
      config.max_epochs = 12;
      config.lr.tolerance = 100;
      config.compute_final_metrics = false;
      const auto report = bench::run_experiment(runs.dataset(), config);
      double comm = 0.0;
      for (const auto& record : report.epoch_log) comm += record.comm_seconds;
      epoch_time[t] = report.mean_epoch_seconds();
      comm_time[t] = comm / report.epochs;
      const std::string key =
          "ps.n" + std::to_string(nodes) + "." + transports[t];
      reporter.set(key + ".epoch_seconds", epoch_time[t]);
      reporter.set(key + ".comm_seconds", comm_time[t]);
      ++t;
    }
    table.begin_row()
        .add(nodes)
        .add(epoch_time[0], 4)
        .add(epoch_time[1], 4)
        .add(epoch_time[2], 4)
        .add(comm_time[0], 4)
        .add(comm_time[1], 4);
  }
  bench::emit(table,
              "Parameter-server bottleneck (per-epoch seconds, fixed 12 "
              "epochs)",
              options.csv);
}

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  const auto options = bench::parse_options(args, "fb250k", {1, 2, 4, 8, 16});
  bench::reject_unread(args);
  obs::BenchReporter reporter("fb250k_methods", options.bench_json);
  bench::context_from(reporter, options);
  const kge::Dataset dataset = bench::make_dataset(options);
  bench::Runs runs(options, dataset);

  figure9(runs, reporter);
  figure6b(runs, reporter);
  parameter_server_ablation(runs, reporter);
  return reporter.write() ? 0 : 1;
}
