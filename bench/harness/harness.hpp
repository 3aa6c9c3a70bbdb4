// Shared experiment harness for the paper-reproduction benches.
//
// Every bench binary reproduces one table or figure of the paper. The
// harness centralizes: dataset construction (synthetic FB15K/FB250K
// stand-ins, or real data via --data), per-dataset training defaults,
// CLI overrides, and result-row printing with the paper's reported value
// alongside the measured one.
//
// Common flags (all binaries):
//   --scale bench|mini|full   workload size (default bench: seconds/run;
//                             mini: the DESIGN.md mini scale; full: the
//                             paper-sized graphs — hours)
//   --data <dir>              use a real OpenKE/TSV dataset instead
//   --nodes 1,2,4,8           node counts to sweep (where applicable)
//   --rank N                  embedding rank (complex components)
//   --batch N                 positives per rank per step
//   --lr X --tolerance N --max-epochs N --seed N
//   --model complex|distmult|transe
//   --csv                     also emit CSV rows for plotting
//   --bench-json <file>       write the machine-checkable result block
//                             (obs::BenchReporter; gated in CI by
//                             tools/check_bench.py)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "harness/paper_reference.hpp"
#include "kge/dataset.hpp"
#include "obs/bench_reporter.hpp"
#include "util/argparse.hpp"
#include "util/table.hpp"

namespace dynkge::bench {

struct HarnessOptions {
  std::string dataset = "fb15k";  ///< fb15k | fb250k (synthetic stand-ins)
  std::string scale = "bench";    ///< bench | mini | full
  std::string data_dir;           ///< non-empty: load real data instead
  std::string model = "complex";

  std::vector<std::int64_t> nodes;

  std::int32_t rank = 16;
  std::size_t batch = 500;
  double base_lr = 0.01;
  int tolerance = 10;
  int max_epochs = 150;
  std::uint64_t seed = 20220829;  // the conference start date
  bool csv = false;
  std::string bench_json;  ///< --bench-json path ("" = write no block)

  /// Baseline negatives per positive (paper: 10 for FB15K, 1 for FB250K;
  /// scaled down at bench scale).
  int baseline_negatives = 4;
  /// Sample-selection ratio for the +SS presets (paper: 1:10 / 1:5).
  int ss_sampled = 8;
  int ss_used = 1;
};

/// dataset/scale/model/rank/batch/seed from the parsed harness options, as
/// the reporter's workload-identity context.
void context_from(obs::BenchReporter& reporter, const HarnessOptions& options);

/// Parse shared flags. `dataset` fixes which stand-in the binary targets.
HarnessOptions parse_options(int argc, const char* const* argv,
                             const std::string& dataset,
                             std::vector<std::int64_t> default_nodes);

/// Build the experiment dataset (synthetic unless --data was given).
kge::Dataset make_dataset(const HarnessOptions& options);

/// Training defaults for this dataset/scale with CLI overrides applied.
core::TrainConfig make_config(const HarnessOptions& options, int nodes);

/// Run one configured training job, logging a one-line summary to stderr.
core::TrainReport run_experiment(const kge::Dataset& dataset,
                                 core::TrainConfig config);

/// Print the standard header naming the experiment and its substitutions.
void print_banner(const std::string& experiment_id,
                  const std::string& paper_claim,
                  const HarnessOptions& options,
                  const kge::Dataset& dataset);

/// Emit the table, plus CSV when requested.
void emit(const util::Table& table, const std::string& caption, bool csv);

/// Validation TCA vs epoch, one column per run after "epoch": about 20
/// rows sampled across the longest run, "-" once a run has stopped.
util::Table tca_curve(std::vector<std::string> header,
                      const std::vector<const core::TrainReport*>& runs);

/// One method of a combined-methods figure.
struct Method {
  const char* name;  ///< legend name
  const char* key;   ///< metric-name slug for the --bench-json block
  core::StrategyConfig strategy;
};

/// Figures 8 and 9: every method at every node count, as "Figure
/// <figure>{a,b,c}" tables of training time, epochs and MRR, reported as
/// n<nodes>.<key>.{tt_sim_seconds,epochs,tca,mrr}. The first two methods
/// must be all-reduce and all-gather: their runs are printed again as the
/// paper's baseline table beside its rows. Last comes the last method's
/// (the combined stack's) average time reduction and MRR gain over the
/// first, next to the paper's. Returns the reports per node count, in
/// method order.
std::vector<core::TrainReport> run_combined_figure(
    const HarnessOptions& options, const kge::Dataset& dataset,
    const std::vector<Method>& methods, obs::BenchReporter& reporter,
    const paper::CombinedFigure& paper);

}  // namespace dynkge::bench
