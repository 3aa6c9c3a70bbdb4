// FederatedTrainer — multi-client training with server-side delta
// aggregation (the FedS-style scenario on top of the paper's stack).
//
// M simulated clients each hold a private shard of the training triples.
// One aggregation round is: every client copies the shared global model,
// runs E local epochs of plain SGD on its shard, computes the sparse
// entity/relation row *deltas* (local - global for touched rows), pushes
// them through the strategy's selection (Top-K or RS, with error-feedback
// residuals parked per client across rounds) and quantization, and the
// server merges them over the parameter-server exchange path
// (gatherv + broadcast in the cost model). Every client applies the same
// merged average delta, so all replicas stay bit-identical — verified at
// the end of every run.
//
// Determinism contract (DESIGN.md section 12): results are byte-identical
// for a fixed (seed, client roster) across host-pool sizes, because every
// RNG stream is derived from (seed, original client id, round, epoch),
// shards are partitioned once for the *original* client count, each round
// re-shuffles from the shard's canonical order, and all reductions
// consume client contributions in fixed rank order.
//
// Client crashes go through comm::supervise, the distributed trainer's
// supervision loop: a death surfaces from Cluster::run as RankFailedError,
// plan_recovery() decides shrink-vs-fail-fast against the same
// ElasticPolicy budget, and within it the roster shrinks to the survivors
// (apply_failures maps the plan's rank indices back to original client
// ids, so shard ownership and RNG streams survive the shrink) and the
// poisoned round replays from the previous round's in-memory snapshot —
// byte-identical to a fresh run on the shrunk roster resumed from the
// same snapshot. A dead client's shard simply drops out (its data is
// private). Each client's program runs in named stages (federated.cpp):
// restore, train locally, exchange the delta, close the round, snapshot,
// finish.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/recovery.hpp"
#include "core/lr_scheduler.hpp"
#include "core/strategy_config.hpp"
#include "kge/dataset.hpp"
#include "kge/evaluator.hpp"
#include "obs/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace dynkge::core {

/// Shape of a federated run: M clients x R rounds x E local epochs, plus
/// how much client failure the run absorbs before failing fast.
struct FederatedPolicy {
  int num_clients = 2;         ///< --clients: simulated clients (M)
  int local_epochs = 1;        ///< --local-epochs: local passes per round (E)
  int rounds = 10;             ///< --rounds: aggregation rounds (R)
  comm::ElasticPolicy elastic; ///< --elastic / --max-rank-failures
};

/// Validate by field, naming the CLI flag in the message (the
/// TrainConfig::validate precedent). Throws std::invalid_argument.
void validate_federated_policy(const FederatedPolicy& policy);

/// Map a recovery plan's failed rank *indices* (positions within the
/// currently active roster, ascending) back to the surviving original
/// client ids. Keying everything on original client ids is what keeps a
/// post-crash replay byte-identical to a fresh run on the shrunk roster.
std::vector<int> apply_failures(const std::vector<int>& active_clients,
                                const std::vector<int>& failed_ranks);

/// Per-round record (one per client per round): the "federated_round"
/// event's fields, and the report's round_log entries.
struct FederatedRoundStats {
  int round = 0;
  int client = 0;          ///< original client id
  int active_clients = 0;
  int local_epochs = 0;
  std::string selection;   ///< selection mode label for the round
  double keep_rate = 1.0;  ///< delta rows kept / rows before selection
  std::size_t bytes_on_wire = 0;
  double mean_loss = 0.0;
  double lr = 0.0;
  double val_accuracy = 0.0;
  double sim_seconds = 0.0;
  double comm_seconds = 0.0;
};

/// Everything needed to resume a federated run at a round boundary. Kept
/// in memory for elastic recovery (like the distributed trainer's live
/// snapshots) and surfaced on the report for determinism tests.
struct FederatedSnapshot {
  int next_round = 0;
  /// Global model parameters (identical on every client).
  std::vector<float> entity_params;
  std::vector<float> relation_params;
  PlateauScheduler::State scheduler;
  /// The roster the snapshot was taken with (original client ids,
  /// ascending) and each client's residual blob (4 stores, encoded by
  /// kge::encode_residual_maps), parallel to `clients`.
  std::vector<int> clients;
  std::vector<std::string> client_residuals;
};

struct FederatedConfig {
  std::string model_name = "complex";
  std::int32_t embedding_rank = 32;

  int negatives = 1;           ///< uniform corruptions per positive
  double weight_decay = 1e-6;

  PlateauConfig lr;
  std::uint64_t seed = 1234;

  /// Selection / quantization for the delta exchange. The transport is
  /// always parameter-server (the comm field is ignored); Top-K requires
  /// topk_k as in TrainConfig.
  StrategyConfig strategy;

  FederatedPolicy policy;  ///< clients / local epochs / rounds / elastic

  int host_threads = 0;

  comm::FaultInjector* fault_injector = nullptr;
  obs::TelemetrySinks telemetry;

  std::size_t valid_max_triples = 500;
  std::size_t eval_max_triples = 250;
  bool compute_final_metrics = true;

  comm::CostModelParams network = comm::CostModelParams::aries();

  /// Test hooks: start from a subset of the original roster (empty = all
  /// clients 0..M-1), optionally resuming from a snapshot — exactly what
  /// a crash recovery does internally, so determinism tests can compare a
  /// recovered run against a fresh shrunk-roster run.
  std::vector<int> active_clients;
  std::shared_ptr<const FederatedSnapshot> resume;
};

struct FederatedReport {
  std::string strategy_label;
  std::string model_name;
  int num_clients = 0;      ///< original roster size (M)
  int active_clients = 0;   ///< survivors at the end
  int rounds = 0;           ///< aggregation rounds completed (incl. resumed)
  bool converged = false;   ///< plateau stop before the round cap

  double final_val_accuracy = 0.0;
  double tca = 0.0;
  kge::RankingMetrics ranking;

  double total_sim_seconds = 0.0;
  double wall_seconds = 0.0;

  int client_failures = 0;
  int recoveries = 0;
  double recovery_seconds = 0.0;

  /// Every client ended the run with bit-identical global parameters.
  bool replicas_consistent = false;

  /// The rank-0 client's round records (times and loss are cluster-wide).
  std::vector<FederatedRoundStats> round_log;

  /// The final global model (shared by all clients).
  std::shared_ptr<kge::KgeModel> model;

  /// Snapshot taken after the last completed round — lets tests chain
  /// byte-identity checks (recovered run vs fresh shrunk-roster resume).
  std::shared_ptr<const FederatedSnapshot> final_state;
};

class FederatedTrainer {
 public:
  FederatedTrainer(const kge::Dataset& dataset, FederatedConfig config);

  /// Run the federated job. Client deaths within the elastic budget
  /// shrink the roster and replay the poisoned round; beyond the budget
  /// comm::RankFailedError propagates (the CLI exits 3).
  FederatedReport train();

  const FederatedConfig& config() const { return config_; }

 private:
  /// One cluster attempt on `active` (original client ids, ascending).
  /// `resume` may be null; `newest` receives each round's snapshot, so it
  /// holds the rollback point when the attempt throws.
  FederatedReport run_attempt(const std::vector<int>& active,
                              const FederatedSnapshot* resume,
                              util::ThreadPool& pool,
                              std::shared_ptr<FederatedSnapshot>& newest);

  void validate_resume(const FederatedSnapshot& snapshot,
                       const std::vector<int>& active) const;

  const kge::Dataset& dataset_;
  FederatedConfig config_;
};

}  // namespace dynkge::core
