// Ablation — cost of the observability layer (src/obs/).
//
// The telemetry contract is "near-zero when off, cheap when on": disabled
// sinks cost a few pointer checks per step, enabled sinks only atomics,
// scoped clock reads, and one JSONL line per epoch per rank. This bench
// trains the same fixed configuration with telemetry off and with every
// sink enabled (metrics + trace + events to a temp file), interleaving
// repetitions to cancel thermal/frequency drift, and reports the wall-time
// overhead. Target: enabled < 2% on the fb15k bench scale; losses, epoch
// counts and the trained model stay bit-identical either way (tested in
// test_obs_events.cpp; re-asserted here on the deterministic outputs).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/harness.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

using namespace dynkge;

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv, "fb15k", {4});
  obs::BenchReporter reporter("obs_overhead", options.bench_json);
  bench::context_from(reporter, options);
  const kge::Dataset dataset = bench::make_dataset(options);
  bench::print_banner(
      "Ablation: telemetry overhead (metrics + trace spans + event stream)",
      "observability is free when off and <2% wall overhead when fully on; "
      "results are bit-identical in both modes",
      options, dataset);

  const int ranks = static_cast<int>(options.nodes.back());
  constexpr int kRepetitions = 3;
  const std::string events_path = "/tmp/dynkge_bench_obs_events.jsonl";

  double off_wall = 0.0, on_wall = 0.0;
  int off_epochs = 0, on_epochs = 0;
  double off_loss = 0.0, on_loss = 0.0;
  std::size_t spans = 0, events_written = 0;

  for (int rep = 0; rep < kRepetitions; ++rep) {
    {
      core::TrainConfig config = bench::make_config(options, ranks);
      config.strategy =
          core::StrategyConfig::drs_1bit(options.baseline_negatives);
      const auto report = bench::run_experiment(dataset, config);
      off_wall += report.wall_seconds;
      off_epochs = report.epochs;
      off_loss = report.epoch_log.back().mean_loss;
    }
    {
      obs::MetricsRegistry metrics;
      obs::TraceWriter trace;
      obs::EventLog events(events_path);
      core::TrainConfig config = bench::make_config(options, ranks);
      config.strategy =
          core::StrategyConfig::drs_1bit(options.baseline_negatives);
      config.telemetry.metrics = &metrics;
      config.telemetry.trace = &trace;
      config.telemetry.events = &events;
      const auto report = bench::run_experiment(dataset, config);
      on_wall += report.wall_seconds;
      on_epochs = report.epochs;
      on_loss = report.epoch_log.back().mean_loss;
      spans = trace.size();
      events_written = static_cast<std::size_t>(events.lines_written());
    }
  }
  std::remove(events_path.c_str());

  util::Table table({"telemetry", "wall_s_total", "epochs", "mean_loss_last",
                     "spans", "events"});
  table.begin_row()
      .add("off")
      .add(off_wall, 3)
      .add(static_cast<std::int64_t>(off_epochs))
      .add(off_loss, 6)
      .add(static_cast<std::int64_t>(0))
      .add(static_cast<std::int64_t>(0));
  table.begin_row()
      .add("on (all sinks)")
      .add(on_wall, 3)
      .add(static_cast<std::int64_t>(on_epochs))
      .add(on_loss, 6)
      .add(static_cast<std::int64_t>(spans))
      .add(static_cast<std::int64_t>(events_written));
  bench::emit(table,
              "telemetry off vs fully on, " + std::to_string(kRepetitions) +
                  " interleaved repetitions each",
              options.csv);

  const double overhead = off_wall > 0.0 ? (on_wall / off_wall - 1.0) : 0.0;
  std::printf("\n# telemetry overhead: %+.2f%% wall (target < 2%%)\n",
              overhead * 100.0);
  const bool identical = off_epochs == on_epochs && off_loss == on_loss;
  // The "<2% with all telemetry on" claim, machine-checkable: CI gates
  // overhead_ratio with an absolute ceiling (see tools/check_bench.py).
  reporter.set("overhead_ratio", overhead);
  reporter.flag("outputs_identical", identical);
  reporter.count("epochs", static_cast<std::uint64_t>(on_epochs));
  reporter.count("trace_spans", static_cast<std::uint64_t>(spans));
  reporter.count("events_written",
                 static_cast<std::uint64_t>(events_written));
  const bool wrote = reporter.write();
  if (!identical) {
    std::printf("# ERROR: telemetry changed deterministic outputs "
                "(epochs %d vs %d, loss %.9g vs %.9g)\n",
                off_epochs, on_epochs, off_loss, on_loss);
    return 1;
  }
  std::printf("# deterministic outputs identical with telemetry on\n");
  return wrote ? 0 : 1;
}
