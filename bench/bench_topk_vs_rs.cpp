// Top-K vs random selection at equal kept-bytes on the FB15K-like
// dataset: convergence (validation TCA per epoch) and final ranking
// quality.
//
// Expected shape: entity-wise Top-K with error feedback matches or beats
// random selection when both keep the same number of entity rows per
// step, because Top-K spends the same wire budget on the rows with the
// largest accumulated gradient mass instead of a uniform sample.
//
// The kept-bytes budget is calibrated, not assumed: the RS run goes
// first, its mean kept rows per step is read back from the epoch log,
// and the Top-K run sets --topk-k to that row count. Both variants use
// the same all-gather transport and raw codec, so equal rows per step is
// equal bytes per step.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "harness/harness.hpp"

using namespace dynkge;

namespace {

/// Mean entity rows this rank shipped per step, over the whole run.
double mean_rows_sent(const core::TrainReport& report) {
  if (report.epoch_log.empty()) return 0.0;
  double total = 0.0;
  for (const auto& epoch : report.epoch_log) total += epoch.rows_sent;
  return total / static_cast<double>(report.epoch_log.size());
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv, "fb15k", {2});
  obs::BenchReporter reporter("topk_vs_rs", options.bench_json);
  bench::context_from(reporter, options);
  const kge::Dataset dataset = bench::make_dataset(options);
  bench::print_banner(
      "Top-K vs random selection at equal kept-bytes",
      "entity-wise Top-K with error feedback matches random selection's "
      "convergence while spending the same bytes on the wire",
      options, dataset);

  const int nodes = static_cast<int>(options.nodes[0]);

  // Random selection first: it defines the kept-bytes budget.
  core::TrainConfig rs_config = bench::make_config(options, nodes);
  rs_config.strategy = core::StrategyConfig::rs(options.baseline_negatives);
  rs_config.strategy.selection_residual = true;
  const core::TrainReport rs = bench::run_experiment(dataset, rs_config);

  const double rs_rows = mean_rows_sent(rs);
  const int topk_k = std::max(1, static_cast<int>(std::lround(rs_rows)));

  core::TrainConfig topk_config = bench::make_config(options, nodes);
  topk_config.strategy =
      core::StrategyConfig::topk(topk_k, options.baseline_negatives);
  const core::TrainReport topk = bench::run_experiment(dataset, topk_config);
  const double topk_rows = mean_rows_sent(topk);

  const std::size_t longest =
      std::max(rs.epoch_log.size(), topk.epoch_log.size());
  util::Table curve({"epoch", "RS TCA", "TopK TCA"});
  const std::size_t stride = std::max<std::size_t>(1, longest / 20);
  for (std::size_t epoch = 0; epoch < longest; epoch += stride) {
    curve.begin_row().add(static_cast<std::int64_t>(epoch));
    for (const core::TrainReport* report : {&rs, &topk}) {
      if (epoch < report->epoch_log.size()) {
        curve.add(report->epoch_log[epoch].val_accuracy, 1);
      } else {
        curve.add("-");
      }
    }
  }
  bench::emit(curve, "Top-K vs RS at equal kept-bytes: TCA vs epoch",
              options.csv);

  // Equal rows per step == equal bytes per step (same transport/codec),
  // so the ratio doubles as the budget-parity check.
  const double rows_ratio = rs_rows > 0.0 ? topk_rows / rs_rows : 0.0;
  std::cout << "Budget: RS mean rows/step=" << rs_rows
            << " -> topk_k=" << topk_k
            << " (TopK mean rows/step=" << topk_rows << ")\n"
            << "Finals: RS TCA=" << rs.tca << " MRR=" << rs.ranking.mrr
            << " | TopK TCA=" << topk.tca << " MRR=" << topk.ranking.mrr
            << (topk.ranking.mrr >= rs.ranking.mrr
                    ? "  -> TopK >= RS at equal kept-bytes\n"
                    : "  -> TopK fell below RS\n");

  const core::TrainReport* reports[] = {&rs, &topk};
  const char* keys[] = {"rs", "topk"};
  for (int v = 0; v < 2; ++v) {
    const std::string key = keys[v];
    reporter.count(key + ".epochs",
                   static_cast<std::uint64_t>(reports[v]->epochs));
    reporter.set(key + ".tca", reports[v]->tca);
    reporter.set(key + ".mrr", reports[v]->ranking.mrr);
  }
  reporter.set("rs.mean_rows_sent", rs_rows);
  reporter.set("topk.mean_rows_sent", topk_rows);
  reporter.count("topk_k", static_cast<std::uint64_t>(topk_k));
  reporter.set("kept_rows_ratio", rows_ratio);
  reporter.flag("kept_bytes_matched", std::abs(rows_ratio - 1.0) < 0.10);
  reporter.flag("topk_mrr_ge_rs", topk.ranking.mrr >= rs.ranking.mrr);
  return reporter.write() ? 0 : 1;
}
