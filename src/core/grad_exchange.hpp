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
// Error feedback (extension, Karimireddy et al. 2019): on the row-based
// transports each quantized row gets its parked residual added before it
// is encoded, and the error of the code actually sent (the row minus what
// the receivers decode) is parked for the row's next appearance. Both
// happen inside RowCodec::encode_grad, in the one write of the wire
// buffer. The parked rows live in two stores of their own (entity and
// relation), apart from the row selector's.
#pragma once

#include <cstdint>
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

  /// Checkpoint access to the error-feedback residual stores (quantization
  /// error parked for the next step — training state, like optimizer
  /// moments).
  const kge::SparseGrad& entity_residuals() const { return entity_residual_; }
  const kge::SparseGrad& relation_residuals() const {
    return relation_residual_;
  }
  void restore_residuals(kge::SparseGrad entity, kge::SparseGrad relation) {
    entity_residual_ = std::move(entity);
    relation_residual_ = std::move(relation);
  }

 private:
  /// One matrix worth of exchange. Returns this rank's modeled traffic.
  std::size_t exchange_matrix(kge::SparseGrad& local, kge::SparseGrad& merged,
                              const RowCodec& codec, Transport transport,
                              std::size_t dense_bytes,
                              kge::SparseGrad* residual, util::Rng& rng);

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
  kge::SparseGrad entity_residual_;
  kge::SparseGrad relation_residual_;
  /// This rank's wire buffer, reused across calls.
  std::vector<std::byte> encode_scratch_;
};

}  // namespace dynkge::core
