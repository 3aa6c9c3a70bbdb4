#include "harness/harness.hpp"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "kge/synthetic.hpp"
#include "kge/tsv_loader.hpp"
#include "util/stopwatch.hpp"

namespace dynkge::bench {

void context_from(obs::BenchReporter& reporter, const HarnessOptions& options) {
  reporter.context("dataset", options.data_dir.empty()
                                  ? options.dataset + "/" + options.scale
                                  : options.data_dir);
  reporter.context("model", options.model);
  reporter.context("rank", static_cast<std::int64_t>(options.rank));
  reporter.context("batch", static_cast<std::int64_t>(options.batch));
  reporter.context("seed", static_cast<std::int64_t>(options.seed));
}

namespace {

kge::SyntheticSpec spec_for(const std::string& dataset,
                            const std::string& scale) {
  using kge::SyntheticSpec;
  if (dataset == "fb15k") {
    if (scale == "full") return SyntheticSpec::fb15k_full();
    if (scale == "mini") return SyntheticSpec::fb15k_mini();
    // bench: seconds per training run on one laptop core. The elevated
    // noise fraction keeps the ranking task off its accuracy ceiling so
    // method-to-method MRR differences stay visible (the paper's FB15K
    // MRR band is 0.52-0.67).
    SyntheticSpec spec;
    spec.num_entities = 1000;
    spec.num_relations = 80;
    spec.num_triples = 15000;
    spec.num_latent_types = 12;
    spec.noise_fraction = 0.25;
    spec.seed = 151;
    return spec;
  }
  if (dataset == "fb250k") {
    if (scale == "full") return SyntheticSpec::fb250k_full();
    if (scale == "mini") return SyntheticSpec::fb250k_mini();
    // Relatively more entities than the fb15k stand-in so the per-step
    // gradient matrix is *sparse* (the property that makes all-gather win
    // at small node counts on FB250K).
    SyntheticSpec spec;
    spec.num_entities = 6000;
    spec.num_relations = 200;
    spec.num_triples = 30000;
    spec.num_latent_types = 24;
    spec.noise_fraction = 0.25;
    spec.seed = 251;
    return spec;
  }
  throw std::invalid_argument("unknown dataset preset: " + dataset);
}

}  // namespace

HarnessOptions parse_options(int argc, const char* const* argv,
                             const std::string& dataset,
                             std::vector<std::int64_t> default_nodes) {
  const util::ArgParser args(argc, argv);
  HarnessOptions options;
  options.dataset = dataset;
  options.scale = args.get_string("scale", "bench");
  options.data_dir = args.get_string("data", "");
  options.model = args.get_string("model", "complex");
  options.nodes = args.get_int_list("nodes", default_nodes);
  options.csv = args.has_flag("csv");
  options.bench_json = args.get_string("bench-json", "");
  options.seed =
      static_cast<std::uint64_t>(args.get_int("seed", 20220829));

  // Dataset-dependent defaults (paper values at full scale; scaled-down
  // equivalents at bench scale so a full sweep stays in minutes).
  const bool full = options.scale == "full";
  if (dataset == "fb250k") {
    options.baseline_negatives = 1;  // paper: 1 negative for FB250K
    options.ss_sampled = 5;          // paper ratio 1:5
    options.ss_used = 1;
    options.batch = full ? 10000 : 500;
  } else {
    // Paper: FB15K baseline trains with 10 negatives per positive and the
    // SS runs sample 10 and keep the hardest 1 — the baseline negative
    // count matches the SS sample count, which is what makes SS a large
    // *time* win. Bench scale uses 8 for both.
    options.baseline_negatives = full ? 10 : 8;
    options.ss_sampled = full ? 10 : 8;
    options.ss_used = 1;
    options.batch = full ? 10000 : 500;
  }
  options.base_lr = full ? 0.001 : 0.01;
  options.tolerance = full ? 15 : 10;
  options.max_epochs = full ? 500 : 150;
  options.rank = full ? 100 : 16;

  options.rank = static_cast<std::int32_t>(args.get_int("rank", options.rank));
  options.batch =
      static_cast<std::size_t>(args.get_int("batch", options.batch));
  options.base_lr = args.get_double("lr", options.base_lr);
  options.tolerance =
      static_cast<int>(args.get_int("tolerance", options.tolerance));
  options.max_epochs =
      static_cast<int>(args.get_int("max-epochs", options.max_epochs));
  options.baseline_negatives = static_cast<int>(
      args.get_int("negatives", options.baseline_negatives));
  options.ss_sampled =
      static_cast<int>(args.get_int("ss-sampled", options.ss_sampled));
  options.ss_used = static_cast<int>(args.get_int("ss-used", options.ss_used));
  return options;
}

kge::Dataset make_dataset(const HarnessOptions& options) {
  if (!options.data_dir.empty()) {
    return kge::load_dataset(options.data_dir);
  }
  return kge::generate_synthetic(spec_for(options.dataset, options.scale));
}

core::TrainConfig make_config(const HarnessOptions& options, int nodes) {
  core::TrainConfig config;
  config.model_name = options.model;
  config.embedding_rank = options.rank;
  config.num_nodes = nodes;
  config.batch_size = options.batch;
  config.lr.base_lr = options.base_lr;
  config.lr.tolerance = options.tolerance;
  config.max_epochs = options.max_epochs;
  config.seed = options.seed;
  config.strategy =
      core::StrategyConfig::baseline_allreduce(options.baseline_negatives);
  // Full-scale runs model the paper's Aries interconnect directly; the
  // scaled-down bench workloads use the bench-calibrated profile so the
  // communication share of an epoch matches the full-scale regime.
  config.network = options.scale == "full"
                       ? comm::CostModelParams::aries()
                       : comm::CostModelParams::bench_scale();
  return config;
}

core::TrainReport run_experiment(const kge::Dataset& dataset,
                                 core::TrainConfig config) {
  const util::Stopwatch watch;
  core::DistributedTrainer trainer(dataset, config);
  core::TrainReport report = trainer.train();
  std::fprintf(stderr,
               "[bench] %-18s P=%-2d N=%-3d TT(sim)=%8.3fs MRR=%.3f "
               "TCA=%.1f (%.1fs wall)\n",
               report.strategy_label.c_str(), report.num_nodes, report.epochs,
               report.total_sim_seconds, report.ranking.mrr, report.tca,
               watch.seconds());
  return report;
}

void print_banner(const std::string& experiment_id,
                  const std::string& paper_claim,
                  const HarnessOptions& options,
                  const kge::Dataset& dataset) {
  std::cout << "==========================================================\n"
            << experiment_id << "\n"
            << "Paper claim: " << paper_claim << "\n"
            << "Workload: "
            << dataset.summary(options.data_dir.empty()
                                   ? options.dataset + "-like synthetic (" +
                                         options.scale + " scale)"
                                   : options.data_dir)
            << "\n"
            << "Model: " << options.model << " rank=" << options.rank
            << " batch=" << options.batch << " lr=" << options.base_lr
            << " tolerance=" << options.tolerance
            << " negatives=" << options.baseline_negatives << "\n"
            << "Note: times are simulated-cluster seconds (alpha-beta model "
               "+ measured thread compute); see DESIGN.md section 2.\n"
            << "==========================================================\n";
}

void emit(const util::Table& table, const std::string& caption, bool csv) {
  table.print(std::cout, caption);
  if (csv) {
    std::cout << "CSV:\n" << table.to_csv() << "\n";
  }
}

util::Table tca_curve(std::vector<std::string> header,
                      const std::vector<const core::TrainReport*>& runs) {
  std::size_t longest = 0;
  for (const core::TrainReport* run : runs) {
    longest = std::max(longest, run->epoch_log.size());
  }
  util::Table curve(std::move(header));
  const std::size_t stride = std::max<std::size_t>(1, longest / 20);
  for (std::size_t epoch = 0; epoch < longest; epoch += stride) {
    curve.begin_row().add(static_cast<std::int64_t>(epoch));
    for (const core::TrainReport* run : runs) {
      if (epoch < run->epoch_log.size()) {
        curve.add(run->epoch_log[epoch].val_accuracy, 1);
      } else {
        curve.add("-");
      }
    }
  }
  return curve;
}

namespace {

/// "; its allreduce and allgather columns are Figure <panel>", or "".
std::string figure1_note(const char* panel) {
  return *panel == '\0' ? std::string()
                         : std::string("; its allreduce and allgather "
                                       "columns are Figure ") +
                               panel;
}

/// The paper's baseline table from the all-reduce and all-gather runs
/// (methods 0 and 1 of each node count's `methods_per_count` reports),
/// each beside the paper's row for its node count.
void emit_baseline_table(const HarnessOptions& options,
                         const std::vector<core::TrainReport>& reports,
                         std::size_t methods_per_count,
                         const paper::CombinedFigure& paper) {
  util::Table table({"nodes", "method", "TT(sim s)", "N", "TCA", "MRR",
                     "paper TT(h)", "paper N", "paper TCA", "paper MRR"});
  for (std::size_t n = 0; n < options.nodes.size(); ++n) {
    const std::int64_t nodes = options.nodes[n];
    const paper::BaselineRow* row = nullptr;
    for (const auto& candidate : paper.table_rows) {
      if (candidate.nodes == nodes) row = &candidate;
    }
    for (const bool allgather : {false, true}) {
      const core::TrainReport& report =
          reports[n * methods_per_count + (allgather ? 1 : 0)];
      table.begin_row()
          .add(nodes)
          .add(report.strategy_label)
          .add(report.total_sim_seconds, 3)
          .add(static_cast<std::int64_t>(report.epochs))
          .add(report.tca, 1)
          .add(report.ranking.mrr, 3);
      if (row != nullptr) {
        table.add(allgather ? row->allgather_tt_hours : row->allreduce_tt_hours,
                  2)
            .add(static_cast<std::int64_t>(allgather ? row->allgather_epochs
                                                     : row->allreduce_epochs))
            .add(allgather ? row->allgather_tca : row->allreduce_tca, 1)
            .add(allgather ? row->allgather_mrr : row->allreduce_mrr, 2);
      } else {
        table.add("-").add("-").add("-").add("-");
      }
    }
  }
  emit(table,
       std::string(paper.table) + " (reproduced): the baseline runs of "
           "Figure " + paper.figure,
       options.csv);
}

}  // namespace

std::vector<core::TrainReport> run_combined_figure(
    const HarnessOptions& options, const kge::Dataset& dataset,
    const std::vector<Method>& methods, obs::BenchReporter& reporter,
    const paper::CombinedFigure& paper) {
  std::vector<std::string> header{"nodes"};
  for (const Method& method : methods) header.emplace_back(method.name);
  util::Table tt(header);
  util::Table epochs = tt;
  util::Table mrr = tt;

  std::vector<core::TrainReport> reports;
  double combined_tt_sum = 0.0, allreduce_tt_sum = 0.0;
  double combined_mrr_sum = 0.0, allreduce_mrr_sum = 0.0;
  for (const std::int64_t nodes : options.nodes) {
    tt.begin_row().add(nodes);
    epochs.begin_row().add(nodes);
    mrr.begin_row().add(nodes);
    for (const Method& method : methods) {
      core::TrainConfig config = make_config(options, static_cast<int>(nodes));
      config.strategy = method.strategy;
      const auto& report = reports.emplace_back(run_experiment(dataset, config));
      tt.add(report.total_sim_seconds, 3);
      epochs.add(static_cast<std::int64_t>(report.epochs));
      mrr.add(report.ranking.mrr, 3);
      std::string key = "n";
      key += std::to_string(nodes) + "." + method.key;
      reporter.set(key + ".tt_sim_seconds", report.total_sim_seconds);
      reporter.count(key + ".epochs",
                     static_cast<std::uint64_t>(report.epochs));
      reporter.set(key + ".tca", report.tca);
      reporter.set(key + ".mrr", report.ranking.mrr);
      if (&method == &methods.front()) {
        allreduce_tt_sum += report.total_sim_seconds;
        allreduce_mrr_sum += report.ranking.mrr;
      }
      if (&method == &methods.back()) {
        combined_tt_sum += report.total_sim_seconds;
        combined_mrr_sum += report.ranking.mrr;
      }
    }
  }

  const std::string prefix = std::string("Figure ") + paper.figure;
  emit(tt,
       prefix + "a (reproduced): total training time (sim s)" +
           figure1_note(paper.tt_panel),
       options.csv);
  emit(epochs,
       prefix + "b (reproduced): epochs to convergence" +
           figure1_note(paper.epochs_panel),
       options.csv);
  emit(mrr, prefix + "c (reproduced): MRR", options.csv);
  emit_baseline_table(options, reports, methods.size(), paper);

  const double time_reduction =
      100.0 * (1.0 - combined_tt_sum / allreduce_tt_sum);
  const double mrr_gain =
      100.0 * (combined_mrr_sum / allreduce_mrr_sum - 1.0);
  std::cout << "Summary vs all-reduce baseline (averaged over node counts):\n"
            << "  training-time reduction: " << time_reduction
            << "%  (paper: " << paper.time_reduction_pct << "%)\n"
            << "  MRR change: " << mrr_gain << "%  (paper: +"
            << paper.mrr_gain_pct << "%)\n";
  reporter.set("time_reduction_pct", time_reduction);
  reporter.set("mrr_gain_pct", mrr_gain);
  reporter.flag("combined_saves_time", time_reduction > 0.0);
  return reports;
}

}  // namespace dynkge::bench
