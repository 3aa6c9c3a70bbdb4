#include "harness/harness.hpp"

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

}  // namespace dynkge::bench
