#include "core/grad_exchange.hpp"

#include <optional>

namespace dynkge::core {

GradExchange::GradExchange(comm::Communicator& comm,
                           const StrategyConfig& strategy,
                           std::int32_t num_entities,
                           std::int32_t entity_width,
                           std::int32_t num_relations,
                           std::int32_t relation_width,
                           obs::TraceWriter* trace, int trace_tid)
    : comm_(comm),
      strategy_(strategy),
      trace_(trace),
      trace_tid_(trace_tid),
      entity_codec_(strategy.quant, strategy.one_bit_scale, entity_width),
      relation_codec_(strategy.quant, strategy.one_bit_scale, relation_width),
      raw_entity_codec_(QuantMode::kNone, strategy.one_bit_scale,
                        entity_width),
      raw_relation_codec_(QuantMode::kNone, strategy.one_bit_scale,
                          relation_width),
      entity_dense_bytes_(static_cast<std::size_t>(num_entities) *
                          static_cast<std::size_t>(entity_width) *
                          sizeof(float)),
      relation_dense_bytes_(static_cast<std::size_t>(num_relations) *
                            static_cast<std::size_t>(relation_width) *
                            sizeof(float)),
      entity_residual_(entity_width),
      relation_residual_(relation_width) {}

std::size_t GradExchange::exchange_matrix(
    kge::SparseGrad& local, kge::SparseGrad& merged, const RowCodec& codec,
    Transport transport, std::size_t dense_bytes, kge::SparseGrad* residual,
    util::Rng& rng) {
  // Error feedback applies to quantized codes only: all-reduce epochs
  // send raw floats, which leave no error to park.
  const bool feedback = residual != nullptr &&
                        transport != Transport::kAllReduce &&
                        codec.mode() != QuantMode::kNone;
  std::vector<std::byte>& encoded = encode_scratch_;
  {
    const obs::TraceSpan span(trace_, "quantize.encode", trace_tid_);
    codec.encode_grad(local, encoded, rng, feedback ? residual : nullptr);
  }

  // The in-process transport is always a gather of encoded rows; what
  // differs per mode is the *modeled* collective the clock is charged for:
  //  - all-gather: the real encoded volume, charged by the collective;
  //  - all-reduce: the dense matrix a ring all-reduce would carry;
  //  - parameter server: workers push rows to the server (gatherv — the
  //    server link carries every worker's volume, the bottleneck the
  //    paper's introduction describes), which merges and broadcasts the
  //    merged rows back.
  // Every rank decodes each rank's payload straight from its published
  // slot, in rank order, before the release barrier. The decode is kept
  // out of the exchange span: one span covers publish and verification,
  // a second the release-barrier wait.
  const char* const exchange_span = transport == Transport::kAllGather
                                        ? "exchange.allgather"
                                    : transport == Transport::kAllReduce
                                        ? "exchange.allreduce"
                                        : "exchange.param_server";
  std::size_t total_encoded = 0;
  std::optional<obs::TraceSpan> wire(std::in_place, trace_, exchange_span,
                                     trace_tid_);
  comm_.allgatherv_slots(
      encoded,
      [&](comm::Communicator::Slots slots) {
        wire.reset();
        {
          const obs::TraceSpan span(trace_, "quantize.decode", trace_tid_);
          for (const std::span<const std::byte> slot : slots) {
            codec.decode_accumulate(slot, merged);
            total_encoded += slot.size();
          }
        }
        wire.emplace(trace_, exchange_span, trace_tid_);
      },
      /*charge_cost=*/transport == Transport::kAllGather);
  wire.reset();

  switch (transport) {
    case Transport::kAllGather:
      return encoded.size();
    case Transport::kAllReduce:
      comm_.charge(comm::CollectiveKind::kAllReduce, dense_bytes,
                   dense_bytes);
      return dense_bytes;
    case Transport::kParameterServer: {
      comm_.charge(comm::CollectiveKind::kGatherV, total_encoded,
                   encoded.size());
      const std::size_t merged_bytes =
          merged.num_rows() * codec.bytes_per_row();
      comm_.charge(comm::CollectiveKind::kBroadcast, merged_bytes,
                   merged_bytes);
      return encoded.size() + merged_bytes;
    }
  }
  return encoded.size();
}

ExchangeResult GradExchange::exchange(kge::ModelGrads& local,
                                      kge::ModelGrads& merged,
                                      const ExchangePlan& plan,
                                      util::Rng& rng) {
  ExchangeResult result;
  const double sim_before = comm_.sim_now();
  merged.clear();

  // On all-reduce epochs the values travel at full precision (a dense
  // ring all-reduce reduces in transit; quantized codes cannot be summed),
  // so quantization only takes effect on the row-based transports
  // (all-gather, parameter server) — which is why quantization shifts the
  // dynamic selector toward all-gather.
  const bool row_based = plan.transport != Transport::kAllReduce;
  const RowCodec& entity_codec =
      row_based ? entity_codec_ : raw_entity_codec_;
  const RowCodec& relation_codec =
      row_based ? relation_codec_ : raw_relation_codec_;

  result.entity_rows_sent = local.entity.num_rows();
  result.bytes_on_wire += exchange_matrix(
      local.entity, merged.entity, entity_codec, plan.transport,
      entity_dense_bytes_,
      strategy_.error_feedback ? &entity_residual_ : nullptr, rng);

  if (plan.exchange_relations) {
    result.bytes_on_wire += exchange_matrix(
        local.relation, merged.relation, relation_codec, plan.transport,
        relation_dense_bytes_,
        strategy_.error_feedback ? &relation_residual_ : nullptr, rng);
  }

  // Cluster average: divide the rank sum by P.
  const float inv_ranks = 1.0f / static_cast<float>(comm_.size());
  for (kge::SparseGrad* grad : {&merged.entity, &merged.relation}) {
    for (const kge::SparseGrad::SlotRef& slot : grad->sorted_slots()) {
      for (float& v : grad->row_at(slot.offset)) v *= inv_ranks;
    }
  }

  result.entity_rows_merged = merged.entity.num_rows();
  result.comm_seconds = comm_.sim_now() - sim_before;
  return result;
}

}  // namespace dynkge::core
