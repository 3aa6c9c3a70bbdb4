// Figure 2 — number of non-zero gradient rows per step as training
// progresses.
//
// Expected shape (paper): the count *decreases* over epochs — embeddings
// stabilize, fewer rows carry significant gradient — which is the
// motivation for probing all-gather later in training (strategy 1).
#include <iostream>

#include "harness/harness.hpp"

using namespace dynkge;

int main(int argc, char** argv) {
  auto options = bench::parse_options(argc, argv, "fb15k", {2});
  obs::BenchReporter reporter("fig2_nonzero_rows", options.bench_json);
  bench::context_from(reporter, options);
  const kge::Dataset dataset = bench::make_dataset(options);
  bench::print_banner(
      "Figure 2: non-zero gradient rows vs epoch",
      "the number of non-zero gradient rows shrinks as training proceeds",
      options, dataset);

  core::TrainConfig config =
      bench::make_config(options, static_cast<int>(options.nodes[0]));
  // Fixed-length run (no early stop) so the series covers a full schedule.
  config.lr.tolerance = config.max_epochs;
  config.compute_final_metrics = false;
  config.strategy =
      core::StrategyConfig::baseline_allgather(options.baseline_negatives);
  const auto report = bench::run_experiment(dataset, config);

  util::Table table({"epoch", "nonzero entity rows/step", "val TCA"});
  const std::size_t stride =
      std::max<std::size_t>(1, report.epoch_log.size() / 25);
  for (std::size_t i = 0; i < report.epoch_log.size(); i += stride) {
    const auto& record = report.epoch_log[i];
    table.begin_row()
        .add(static_cast<std::int64_t>(record.epoch))
        .add(record.nonzero_entity_rows, 1)
        .add(record.val_accuracy, 1);
  }
  bench::emit(table, "Figure 2 (reproduced): non-zero gradient rows",
              options.csv);

  const double first = report.epoch_log.front().nonzero_entity_rows;
  const double last = report.epoch_log.back().nonzero_entity_rows;
  std::cout << "Shape check: rows/step start=" << first << " end=" << last
            << (last < first ? "  -> decreasing (paper agrees)\n"
                             : "  -> not decreasing\n");
  reporter.count("epochs", static_cast<std::uint64_t>(report.epochs));
  reporter.set("rows_per_step.first_epoch", first);
  reporter.set("rows_per_step.last_epoch", last);
  reporter.set("final_val_tca", report.epoch_log.back().val_accuracy);
  reporter.flag("rows_decreasing", last < first);
  return reporter.write() ? 0 : 1;
}
