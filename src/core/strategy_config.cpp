#include "core/strategy_config.hpp"

#include <stdexcept>

namespace dynkge::core {

const char* to_string(CommMode mode) {
  switch (mode) {
    case CommMode::kAllReduce:
      return "allreduce";
    case CommMode::kAllGather:
      return "allgather";
    case CommMode::kDynamic:
      return "dynamic";
    case CommMode::kParameterServer:
      return "param-server";
  }
  return "?";
}

const char* to_string(Transport transport) {
  switch (transport) {
    case Transport::kAllReduce:
      return "allreduce";
    case Transport::kAllGather:
      return "allgather";
    case Transport::kParameterServer:
      return "param-server";
  }
  return "?";
}

const char* to_string(SelectionMode mode) {
  switch (mode) {
    case SelectionMode::kNone:
      return "none";
    case SelectionMode::kAverageThreshold:
      return "average";
    case SelectionMode::kAverageTenth:
      return "averagex0.1";
    case SelectionMode::kBernoulli:
      return "random-selection";
    case SelectionMode::kTopK:
      return "topk";
  }
  return "?";
}

const char* to_string(QuantMode mode) {
  switch (mode) {
    case QuantMode::kNone:
      return "none";
    case QuantMode::kOneBit:
      return "1-bit";
    case QuantMode::kTwoBit:
      return "2-bit";
  }
  return "?";
}

const char* to_string(OneBitScale scale) {
  switch (scale) {
    case OneBitScale::kMax:
      return "max";
    case OneBitScale::kMean:
      return "avg";
    case OneBitScale::kNegMax:
      return "negmax";
    case OneBitScale::kPosMax:
      return "posmax";
    case OneBitScale::kNegMean:
      return "negavg";
    case OneBitScale::kPosMean:
      return "posavg";
  }
  return "?";
}

void StrategyConfig::validate_topk(std::int32_t num_entities,
                                   const char* owner) const {
  if (selection != SelectionMode::kTopK && !dynamic_topk_arm) return;
  if (topk_k < 1) {
    throw std::invalid_argument(
        std::string(owner) +
        ": Top-K selection requires topk_k >= 1 (--topk-k)");
  }
  if (topk_k > num_entities) {
    throw std::invalid_argument(
        std::string(owner) + ": topk_k " + std::to_string(topk_k) +
        " exceeds the entity count " + std::to_string(num_entities) +
        " (--topk-k)");
  }
}

std::string StrategyConfig::label() const {
  std::string out;
  if (selection == SelectionMode::kBernoulli) {
    out = comm == CommMode::kDynamic ? "DRS" : "RS";
  } else if (selection == SelectionMode::kTopK) {
    out = comm == CommMode::kDynamic ? "DTopK" : "TopK";
  } else {
    out = to_string(comm);
  }
  if (dynamic_topk_arm) out += "+TopK-arm";
  if (quant == QuantMode::kOneBit) out += "+1-bit";
  if (quant == QuantMode::kTwoBit) out += "+2-bit";
  if (relation_partition) out += "+RP";
  if (sample_selection_active()) out += "+SS";
  return out;
}

std::string StrategyConfig::spec() const {
  std::string out;
  const auto field = [&out](const char* name, const std::string& value) {
    if (!out.empty()) out += ';';
    out += name;
    out += '=';
    out += value;
  };
  const auto flag = [](bool on) { return std::string(on ? "1" : "0"); };
  field("comm", to_string(comm));
  field("dynamic_probe_interval", std::to_string(dynamic_probe_interval));
  field("selection", to_string(selection));
  field("selection_residual", flag(selection_residual));
  field("topk_k", std::to_string(topk_k));
  field("dynamic_topk_arm", flag(dynamic_topk_arm));
  field("quant", to_string(quant));
  field("one_bit_scale", to_string(one_bit_scale));
  field("error_feedback", flag(error_feedback));
  field("relation_partition", flag(relation_partition));
  field("negatives_sampled", std::to_string(negatives_sampled));
  field("negatives_used", std::to_string(negatives_used));
  return out;
}

StrategyConfig StrategyConfig::baseline_allreduce(int negatives) {
  StrategyConfig config;
  config.comm = CommMode::kAllReduce;
  config.negatives_sampled = negatives;
  config.negatives_used = negatives;
  return config;
}

StrategyConfig StrategyConfig::baseline_allgather(int negatives) {
  StrategyConfig config = baseline_allreduce(negatives);
  config.comm = CommMode::kAllGather;
  return config;
}

StrategyConfig StrategyConfig::baseline_parameter_server(int negatives) {
  StrategyConfig config = baseline_allreduce(negatives);
  config.comm = CommMode::kParameterServer;
  return config;
}

StrategyConfig StrategyConfig::rs(int negatives) {
  StrategyConfig config = baseline_allreduce(negatives);
  config.selection = SelectionMode::kBernoulli;
  // Selected (sparse) rows travel by all-gather; see grad_exchange.hpp.
  config.comm = CommMode::kAllGather;
  return config;
}

StrategyConfig StrategyConfig::drs(int negatives) {
  StrategyConfig config = rs(negatives);
  config.comm = CommMode::kDynamic;
  return config;
}

StrategyConfig StrategyConfig::rs_1bit(int negatives) {
  StrategyConfig config = rs(negatives);
  config.quant = QuantMode::kOneBit;
  return config;
}

StrategyConfig StrategyConfig::drs_1bit(int negatives) {
  StrategyConfig config = drs(negatives);
  config.quant = QuantMode::kOneBit;
  return config;
}

StrategyConfig StrategyConfig::rs_1bit_rp_ss(int sampled, int used) {
  StrategyConfig config = rs_1bit(sampled);
  config.relation_partition = true;
  config.negatives_sampled = sampled;
  config.negatives_used = used;
  return config;
}

StrategyConfig StrategyConfig::drs_1bit_rp_ss(int sampled, int used) {
  StrategyConfig config = drs_1bit(sampled);
  config.relation_partition = true;
  config.negatives_sampled = sampled;
  config.negatives_used = used;
  return config;
}

StrategyConfig StrategyConfig::topk(int k, int negatives) {
  StrategyConfig config = baseline_allreduce(negatives);
  config.selection = SelectionMode::kTopK;
  // Top-K is only meaningful with error feedback: without residuals the
  // dropped (num_rows - k) rows per step would simply be lost.
  config.selection_residual = true;
  config.topk_k = k;
  // Selected (sparse) rows travel by all-gather, like RS.
  config.comm = CommMode::kAllGather;
  return config;
}

StrategyConfig StrategyConfig::drs_topk(int k, int negatives) {
  StrategyConfig config = drs(negatives);
  // Residuals are shared between the RS and Top-K arms (one map per
  // selector), so both arms run with feedback for cross-arm consistency.
  config.selection_residual = true;
  config.topk_k = k;
  config.dynamic_topk_arm = true;
  return config;
}

}  // namespace dynkge::core
