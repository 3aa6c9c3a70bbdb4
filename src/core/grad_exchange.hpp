// The gradient synchronization engine: one call per optimizer step merges
// every rank's sparse gradients into the identical cluster-wide average
// that each replica then applies.
//
// Two transports, matching the paper's baseline pair:
//
//  * all-reduce  — semantically a dense all-reduce of the whole gradient
//    matrix (zeros included). In-process the data still moves as sparse
//    rows (the numerical result is identical), but the simulated clock and
//    statistics are charged for the full dense matrix, exactly what
//    Horovod's dense path would put on the wire. Quantization does not
//    apply: a dense ring all-reduce sums in transit, which a nonlinear
//    1-bit code cannot survive.
//
//  * all-gather  — each rank serializes its non-zero rows through a
//    RowCodec (raw, 1-bit or 2-bit), everyone gathers and merges. Cost is
//    charged for the actual encoded bytes, so random selection and
//    quantization directly shrink the modeled communication time.
//
// Relation gradients follow the same transport unless relation partition
// is active, in which case they are not exchanged at all (each rank is
// the sole owner of its relations).
//
// Error feedback (extension, Karimireddy et al. 2019): per-row residuals
// of the quantization error are added back into the next step's gradient
// before encoding.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "core/quantize.hpp"
#include "core/strategy_config.hpp"
#include "kge/model.hpp"
#include "obs/trace.hpp"

namespace dynkge::core {

/// Per-epoch decisions the trainer hands the exchange.
struct ExchangePlan {
  Transport transport = Transport::kAllReduce;  ///< this epoch's transport
  bool exchange_relations = true; ///< false when relation partition is on

  /// Convenience used by tests and the trainer.
  bool use_allgather() const { return transport == Transport::kAllGather; }
};

/// What one exchange call did (feeds the per-epoch records).
struct ExchangeResult {
  std::size_t entity_rows_sent = 0;    ///< rows this rank contributed
  std::size_t entity_rows_merged = 0;  ///< unique rows after the merge
  std::size_t bytes_on_wire = 0;       ///< this rank's modeled traffic
  double comm_seconds = 0.0;           ///< modeled time added by this call
};

class GradExchange {
 public:
  /// `trace` (optional) records quantize/collective/dequantize spans on
  /// track `trace_tid` (the trainer passes its rank).
  GradExchange(comm::Communicator& comm, const StrategyConfig& strategy,
               std::int32_t num_entities, std::int32_t entity_width,
               std::int32_t num_relations, std::int32_t relation_width,
               obs::TraceWriter* trace = nullptr, int trace_tid = 0);

  /// Merge `local` across all ranks into `merged` (cluster average).
  /// `local` may be mutated (error feedback folds residuals into it).
  ExchangeResult exchange(kge::ModelGrads& local, kge::ModelGrads& merged,
                          const ExchangePlan& plan, util::Rng& rng);

  /// Checkpoint access to the error-feedback residuals (quantization error
  /// parked for the next step — training state, like optimizer moments).
  const std::unordered_map<std::int32_t, std::vector<float>>&
  entity_residuals() const {
    return entity_residual_;
  }
  const std::unordered_map<std::int32_t, std::vector<float>>&
  relation_residuals() const {
    return relation_residual_;
  }
  void restore_residuals(
      std::unordered_map<std::int32_t, std::vector<float>> entity,
      std::unordered_map<std::int32_t, std::vector<float>> relation) {
    entity_residual_ = std::move(entity);
    relation_residual_ = std::move(relation);
  }

 private:
  /// One matrix worth of exchange. Returns this rank's modeled traffic.
  std::size_t exchange_matrix(kge::SparseGrad& local, kge::SparseGrad& merged,
                              const RowCodec& codec, Transport transport,
                              std::size_t dense_bytes,
                              std::unordered_map<std::int32_t,
                                                 std::vector<float>>* residual,
                              util::Rng& rng);

  void apply_error_feedback(
      kge::SparseGrad& local,
      std::unordered_map<std::int32_t, std::vector<float>>& residual,
      const RowCodec& codec, util::Rng& rng);

  comm::Communicator& comm_;
  StrategyConfig strategy_;
  obs::TraceWriter* trace_;
  int trace_tid_;
  RowCodec entity_codec_;
  RowCodec relation_codec_;
  RowCodec raw_entity_codec_;    ///< full-precision codec for all-reduce epochs
  RowCodec raw_relation_codec_;
  std::size_t entity_dense_bytes_;
  std::size_t relation_dense_bytes_;
  std::unordered_map<std::int32_t, std::vector<float>> entity_residual_;
  std::unordered_map<std::int32_t, std::vector<float>> relation_residual_;

  // Reused hot-path buffers: error feedback runs per gradient row per
  // step, and both the encoded wire buffers and the dequantized row are
  // steady-state sized, so after warm-up nothing here allocates.
  std::vector<float> quantized_scratch_;
  std::vector<std::byte> codec_scratch_;
  std::vector<std::byte> encode_scratch_;
};

}  // namespace dynkge::core
