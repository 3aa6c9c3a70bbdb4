#include "comm/recovery.hpp"

#include "util/json_writer.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"

namespace dynkge::comm {
namespace {

std::string join_ranks(const std::vector<int>& ranks) {
  std::string out;
  for (int rank : ranks) {
    if (!out.empty()) out += ",";
    out += std::to_string(rank);
  }
  return out;
}

void record_failure(const obs::TelemetrySinks& sinks,
                    const RecoveryPlan& plan) {
  if (sinks.metrics == nullptr) return;
  sinks.metrics->counter("comm.recovery.rank_failures")
      .add(plan.failed_ranks.size());
  if (plan.action == RecoveryAction::kFailFast) {
    sinks.metrics->counter("comm.recovery.failfast").add(1);
  }
}

void record_recovery(const obs::TelemetrySinks& sinks,
                     const RecoveryPlan& plan, double rebuild_seconds,
                     int resume_epoch) {
  if (sinks.metrics != nullptr) {
    sinks.metrics->counter("comm.recovery.recoveries").add(1);
    sinks.metrics->gauge("comm.recovery.world_size")
        .set(static_cast<double>(plan.new_world));
    sinks.metrics->histogram("comm.recovery.rebuild_seconds")
        .record(rebuild_seconds);
  }
  if (sinks.events != nullptr) {
    util::JsonWriter json;
    json.begin_object().kv("event", "recovery").key("failed_ranks");
    json.begin_array();
    for (int rank : plan.failed_ranks) json.value(rank);
    json.end_array();
    json.kv("old_world", plan.old_world)
        .kv("new_world", plan.new_world)
        .kv("resume_epoch", resume_epoch)
        .kv("rebuild_seconds", rebuild_seconds)
        .end_object();
    sinks.events->write_line(json.str());
  }
}

}  // namespace

std::string RecoveryPlan::describe() const {
  const std::string who =
      (failed_ranks.size() == 1 ? "rank " : "ranks ") +
      join_ranks(failed_ranks) + " failed";
  const int total =
      failures_before + static_cast<int>(failed_ranks.size());
  if (action == RecoveryAction::kShrink) {
    return "shrink " + std::to_string(old_world) + " -> " +
           std::to_string(new_world) + " (" + who + "; cumulative failures " +
           std::to_string(total) + ")";
  }
  return "fail fast (" + who + "; cumulative failures " +
         std::to_string(total) + ")";
}

RecoveryPlan plan_recovery(const RankFailedError& error, int world_size,
                           const ElasticPolicy& policy, int failures_so_far) {
  RecoveryPlan plan;
  plan.old_world = world_size;
  plan.failures_before = failures_so_far;
  for (const auto& failure : error.failures()) {
    plan.failed_ranks.push_back(failure.rank);
    plan.reasons.push_back(failure.what);
  }
  plan.new_world = world_size - static_cast<int>(plan.failed_ranks.size());
  const int cumulative =
      failures_so_far + static_cast<int>(plan.failed_ranks.size());
  const bool within_budget = cumulative <= policy.max_rank_failures;
  if (policy.enabled && within_budget && plan.new_world >= 1) {
    plan.action = RecoveryAction::kShrink;
  } else {
    plan.action = RecoveryAction::kFailFast;
  }
  return plan;
}

SupervisionTally supervise(
    int world, const ElasticPolicy& policy, const obs::TelemetrySinks& sinks,
    const std::function<void(int world)>& attempt,
    const std::function<int(const RecoveryPlan& plan)>& rebuild) {
  const int host_track = world;
  SupervisionTally tally;
  for (;;) {
    try {
      attempt(world);
      return tally;
    } catch (const RankFailedError& error) {
      const RecoveryPlan plan =
          plan_recovery(error, world, policy, tally.failures);
      record_failure(sinks, plan);
      if (plan.action == RecoveryAction::kFailFast) {
        DYNKGE_LOG_ERROR("unrecoverable rank failure: " << plan.describe());
        throw;
      }
      DYNKGE_LOG_WARN("recovering from rank failure: " << plan.describe());
      const util::Stopwatch clock;
      int resume_epoch = 0;
      {
        const obs::TraceSpan span(sinks.trace, "recovery.rebuild",
                                  host_track);
        resume_epoch = rebuild(plan);
      }
      const double seconds = clock.seconds();
      tally.failures += static_cast<int>(plan.failed_ranks.size());
      tally.recoveries += 1;
      tally.recovery_seconds += seconds;
      world = plan.new_world;
      record_recovery(sinks, plan, seconds, resume_epoch);
      DYNKGE_LOG_INFO("recovered: replaying epoch "
                      << resume_epoch << " at world size " << world);
    }
  }
}

}  // namespace dynkge::comm
