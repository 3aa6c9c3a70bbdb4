// Configuration of the paper's five training strategies (section 4).
//
// Every experiment in the evaluation is a point in this configuration
// space; the named presets at the bottom are the method rows that appear
// in the paper's tables and figure legends (Table 5 nomenclature).
#pragma once

#include <cstdint>
#include <string>

namespace dynkge::core {

/// Strategy 1 — how gradient matrices are synchronized across ranks.
enum class CommMode {
  kAllReduce,  ///< dense all-reduce of the full gradient matrix (baseline)
  kAllGather,  ///< sparse all-gather of non-zero rows (baseline)
  kDynamic,    ///< start with all-reduce, probe all-gather every k epochs,
               ///< switch permanently when the probe is faster (DRS)
  kParameterServer,  ///< workers push sparse rows to a server rank which
                     ///< merges and broadcasts — the approach the paper's
                     ///< introduction rejects for its server bottleneck;
                     ///< implemented as a comparison baseline
};

/// The transport actually used for one epoch (the dynamic mode resolves
/// to one of the static transports per epoch).
enum class Transport {
  kAllReduce,
  kAllGather,
  kParameterServer,
};

/// Strategy 2 — which gradient rows are communicated at all.
enum class SelectionMode {
  kNone,              ///< every non-zero row is communicated
  kAverageThreshold,  ///< drop rows with ||g||2 below the mean norm (fig 3 "average")
  kAverageTenth,      ///< threshold = 0.1 * mean norm (fig 3 "averagex0.1")
  kBernoulli,         ///< keep with P = min(1, ||g||2 / mean norm) — the
                      ///< paper's chosen "random selection" (RS)
  kTopK,              ///< entity-wise Top-K by accumulated row norm with
                      ///< error feedback (FedS-style); ties break toward
                      ///< the smaller entity id
};

/// Strategy 3 — gradient value quantization for communicated rows.
enum class QuantMode {
  kNone,    ///< full 32-bit values
  kOneBit,  ///< sign bit + one scale per row (chosen: 32x volume cut)
  kTwoBit,  ///< TernGrad-style {-1, 0, +1} with stochastic zeroing
};

/// Scale statistic for the 1-bit scheme. The paper compared max / average
/// and the one-sided variants and chose max (section 4.3). One-sided
/// variants compute the scale from only the negative (or positive) values;
/// when that side is empty the codec falls back to max|v|.
enum class OneBitScale {
  kMax,      ///< max of |v| (the paper's choice)
  kMean,     ///< mean of |v|
  kNegMax,   ///< max over |negative values|
  kPosMax,   ///< max over positive values
  kNegMean,  ///< mean over |negative values|
  kPosMean,  ///< mean over positive values
};

const char* to_string(CommMode mode);
const char* to_string(Transport transport);
const char* to_string(SelectionMode mode);
const char* to_string(QuantMode mode);
const char* to_string(OneBitScale scale);

struct StrategyConfig {
  CommMode comm = CommMode::kAllReduce;
  int dynamic_probe_interval = 10;  ///< the paper's k

  SelectionMode selection = SelectionMode::kNone;
  /// Park dropped rows as residuals and redeliver them when the row next
  /// appears (Aji & Heafield 2017; extension, off in the paper's runs).
  bool selection_residual = false;

  /// Rows kept per step by SelectionMode::kTopK (entity-wise Top-K).
  /// Required >= 1 when that mode (or the dynamic Top-K arm) is active.
  int topk_k = 0;
  /// Give the dynamic selector a third arm: probe epochs alternate between
  /// the base selection (RS) and Top-K, and the switch commits to the
  /// fastest probed arm that beat the all-reduce baseline.
  bool dynamic_topk_arm = false;

  QuantMode quant = QuantMode::kNone;
  OneBitScale one_bit_scale = OneBitScale::kMax;
  bool error_feedback = false;  ///< Karimireddy-style residual accumulation
                                ///< (extension; off in the paper's runs)

  bool relation_partition = false;  ///< strategy 4

  /// Strategy 5 — negative sampling: draw `negatives_sampled` (n) uniform
  /// corruptions per positive triple and train on the `negatives_used` (m)
  /// hardest. m == n disables selection (baseline "n out of n").
  int negatives_sampled = 1;
  int negatives_used = 1;

  bool sample_selection_active() const {
    return negatives_used < negatives_sampled;
  }

  /// Short label matching the paper's legends ("DRS+1-bit+RP+SS" etc).
  std::string label() const;

  /// When Top-K selection or the DRS Top-K arm is on, require 1 <= topk_k
  /// <= num_entities. The message starts with `owner` (the config being
  /// validated) and names --topk-k. Throws std::invalid_argument.
  void validate_topk(std::int32_t num_entities, const char* owner) const;

  // --- Named presets (paper Table 5) -----------------------------------

  static StrategyConfig baseline_allreduce(int negatives = 1);
  static StrategyConfig baseline_allgather(int negatives = 1);
  /// Parameter-server comparison baseline (paper section 1).
  static StrategyConfig baseline_parameter_server(int negatives = 1);
  /// RS: Bernoulli random selection of gradient rows.
  static StrategyConfig rs(int negatives = 1);
  /// DRS: dynamic all-gather/all-reduce + RS.
  static StrategyConfig drs(int negatives = 1);
  /// RS + 1-bit quantization.
  static StrategyConfig rs_1bit(int negatives = 1);
  /// DRS + 1-bit quantization.
  static StrategyConfig drs_1bit(int negatives = 1);
  /// RS + 1-bit + relation partition + sample selection (m out of n).
  static StrategyConfig rs_1bit_rp_ss(int sampled, int used = 1);
  /// DRS + 1-bit + relation partition + sample selection (m out of n).
  static StrategyConfig drs_1bit_rp_ss(int sampled, int used = 1);
  /// TopK: entity-wise Top-K selection with error feedback (extension).
  static StrategyConfig topk(int k, int negatives = 1);
  /// DRS with the Top-K third arm: {dense all-reduce, RS, Top-K}.
  static StrategyConfig drs_topk(int k, int negatives = 1);
};

}  // namespace dynkge::core
