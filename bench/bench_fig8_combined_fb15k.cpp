// Figure 8 — all methods on FB15K-like over 1..8 nodes:
//   {allreduce, allgather, RS, RS+1-bit, RS+1-bit+RP+SS}
//   (a) total training time, (b) epochs, (c) MRR;
// its all-reduce and all-gather runs are also Table 1 (TT, epochs, TCA and
// MRR beside the paper's rows) and, in 8a, Figure 1a.
//
// Expected shapes (paper): the combined method has the lowest training
// time at every node count (65.2% average reduction) and the highest MRR
// (+17.7% average); RS alone tracks the baseline MRR; 1-bit alone dents
// MRR slightly at high node counts. Baselines: all-reduce beats all-gather
// at every node count on this small dataset, epochs trend upward with node
// count, accuracy roughly flat.
#include "harness/harness.hpp"

using namespace dynkge;
namespace paper = dynkge::bench::paper;

int main(int argc, char** argv) {
  const auto options =
      bench::parse_options(argc, argv, "fb15k", {1, 2, 4, 8});
  obs::BenchReporter reporter("fig8_combined_fb15k", options.bench_json);
  bench::context_from(reporter, options);
  const kge::Dataset dataset = bench::make_dataset(options);
  bench::print_banner(
      "Figure 8 (with Table 1 and Figure 1a): combined methods on "
      "FB15K-like",
      "RS+1-bit+RP+SS yields the lowest training time and the highest MRR "
      "at every node count; all-reduce is always faster than all-gather",
      options, dataset);

  const int negatives = options.baseline_negatives;
  bench::run_combined_figure(
      options, dataset,
      {{"allreduce", "allreduce",
        core::StrategyConfig::baseline_allreduce(negatives)},
       {"allgather", "allgather",
        core::StrategyConfig::baseline_allgather(negatives)},
       {"RS", "rs", core::StrategyConfig::rs(negatives)},
       {"RS+1-bit", "rs_1bit", core::StrategyConfig::rs_1bit(negatives)},
       {"RS+1-bit+RP+SS", "rs_1bit_rp_ss",
        core::StrategyConfig::rs_1bit_rp_ss(options.ss_sampled,
                                            options.ss_used)}},
      reporter, paper::kFigure8);
  return reporter.write() ? 0 : 1;
}
