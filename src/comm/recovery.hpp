// Elastic recovery protocol: turn a rank death into a shrink-world plan,
// and the one supervision loop that acts on it.
//
// A permanent rank failure surfaces from Cluster::run as RankFailedError
// (possibly carrying several simultaneous deaths — see fault.hpp).
// supervise() — the loop both the distributed and the federated trainer
// run — asks plan_recovery() what to do with it: fail fast (rethrow, CLI
// exits 3) or shrink the world to the survivors and replay the poisoned
// epoch from the last in-run snapshot. The plan is pure bookkeeping — the
// actual rebuild (state rollback, roster shrink) is the trainer's callback,
// since the trainer owns the training state.
//
// Every recovery decision reaches the optional telemetry sinks:
// comm.recovery.* metrics, a "recovery" JSONL event record, and a
// recovery.rebuild trace span.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "comm/fault.hpp"
#include "obs/telemetry.hpp"

namespace dynkge::comm {

/// How much failure a run is allowed to absorb. Default: none — a rank
/// death aborts the run exactly as before elastic training existed.
struct ElasticPolicy {
  bool enabled = false;        ///< --elastic
  int max_rank_failures = 0;   ///< --max-rank-failures: cumulative budget
};

enum class RecoveryAction {
  kFailFast,  ///< rethrow; the run is unrecoverable under the policy
  kShrink,    ///< rebuild at old_world - failed_ranks.size() and replay
};

/// One recovery decision, derived from a RankFailedError and the policy.
struct RecoveryPlan {
  RecoveryAction action = RecoveryAction::kFailFast;
  std::vector<int> failed_ranks;     ///< ascending
  std::vector<std::string> reasons;  ///< per-rank what(), same order
  int old_world = 0;
  int new_world = 0;          ///< old_world - failed_ranks.size()
  int failures_before = 0;    ///< cumulative failures before this event

  /// Human-readable one-liner, e.g.
  /// "shrink 4 -> 2 (ranks 1,2 failed; budget 2/2)".
  std::string describe() const;
};

/// Decide what to do about `error`, thrown out of a world of size
/// `world_size`, given that `failures_so_far` ranks already died in this
/// run. Shrinks iff the policy allows it, the cumulative failure count
/// stays within max_rank_failures, and at least one rank survives.
RecoveryPlan plan_recovery(const RankFailedError& error, int world_size,
                           const ElasticPolicy& policy, int failures_so_far);

/// What a supervised run absorbed: ranks lost, shrink-world recoveries,
/// and host wall seconds spent in rebuilds. All zero for a clean run.
struct SupervisionTally {
  int failures = 0;
  int recoveries = 0;
  double recovery_seconds = 0.0;
};

/// The elastic supervision loop. Calls attempt(world), starting at
/// `world`, until one attempt returns. A RankFailedError out of an attempt
/// is planned against `policy` and the failures so far: fail fast
/// rethrows it; a shrink runs rebuild(plan) inside a recovery.rebuild
/// trace span (on the host track, tid = the starting world) — the callback
/// rolls the trainer's state back and returns the epoch the shrunk world
/// replays from — then retries at plan.new_world.
SupervisionTally supervise(
    int world, const ElasticPolicy& policy, const obs::TelemetrySinks& sinks,
    const std::function<void(int world)>& attempt,
    const std::function<int(const RecoveryPlan& plan)>& rebuild);

}  // namespace dynkge::comm
