#include "core/report_json.hpp"

#include <fstream>
#include <stdexcept>

#include "util/json_writer.hpp"

namespace dynkge::core {

std::string report_to_json(const TrainReport& report,
                           const obs::MetricsRegistry* metrics) {
  util::JsonWriter json;
  json.begin_object();
  json.kv("strategy", report.strategy_label);
  json.kv("model", report.model_name);
  json.kv("num_nodes", report.num_nodes);
  json.kv("epochs", report.epochs);
  json.kv("converged", report.converged);
  json.kv("total_sim_seconds", report.total_sim_seconds);
  json.kv("mean_epoch_seconds", report.mean_epoch_seconds());
  json.kv("wall_seconds", report.wall_seconds);
  json.kv("host_threads", report.host_threads);
  json.kv("compute_cpu_seconds", report.compute_cpu_seconds);
  json.kv("host_speedup", report.host_speedup());
  json.kv("final_val_accuracy", report.final_val_accuracy);
  json.kv("tca", report.tca);
  json.key("ranking").begin_object();
  json.kv("mrr", report.ranking.mrr);
  json.kv("mean_rank", report.ranking.mean_rank);
  json.kv("hits1", report.ranking.hits1);
  json.kv("hits3", report.ranking.hits3);
  json.kv("hits10", report.ranking.hits10);
  json.kv("evaluated", report.ranking.evaluated);
  json.end_object();
  json.kv("allreduce_fraction", report.allreduce_fraction);
  json.kv("rank_failures", report.rank_failures);
  json.kv("recoveries", report.recoveries);
  json.kv("recovery_seconds", report.recovery_seconds);

  json.key("comm").begin_object();
  json.kv("total_bytes", report.comm_stats.total_bytes());
  json.kv("total_calls", report.comm_stats.total_calls());
  json.kv("total_modeled_seconds",
          report.comm_stats.total_modeled_seconds());
  json.key("per_kind").begin_array();
  for (int kind = 0; kind < static_cast<int>(comm::CollectiveKind::kCount);
       ++kind) {
    const auto& per_kind =
        report.comm_stats.of(static_cast<comm::CollectiveKind>(kind));
    if (per_kind.calls == 0) continue;
    json.begin_object();
    json.kv("kind",
            comm::to_string(static_cast<comm::CollectiveKind>(kind)));
    json.kv("calls", per_kind.calls);
    json.kv("bytes", per_kind.bytes);
    json.kv("modeled_seconds", per_kind.modeled_seconds);
    json.end_object();
  }
  json.end_array();
  json.end_object();

  json.key("epoch_log").begin_array();
  for (const EpochRecord& record : report.epoch_log) {
    json.begin_object();
    json.kv("epoch", record.epoch);
    json.kv("used_allgather", record.used_allgather);
    json.kv("sim_seconds", record.sim_seconds);
    json.kv("comm_seconds", record.comm_seconds);
    json.kv("val_accuracy", record.val_accuracy);
    json.kv("mean_loss", record.mean_loss);
    json.kv("lr", record.lr);
    json.kv("nonzero_entity_rows", record.nonzero_entity_rows);
    json.kv("rows_before_selection", record.rows_before_selection);
    json.kv("rows_sent", record.rows_sent);
    json.end_object();
  }
  json.end_array();
  if (metrics != nullptr) {
    json.key("metrics").raw(metrics->to_json());
  }
  json.end_object();
  return json.str();
}

void write_report_json(const TrainReport& report, const std::string& path,
                       const obs::MetricsRegistry* metrics) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("write_report_json: cannot open " + path);
  }
  out << report_to_json(report, metrics) << '\n';
  if (!out) {
    throw std::runtime_error("write_report_json: write failed for " + path);
  }
}

}  // namespace dynkge::core
