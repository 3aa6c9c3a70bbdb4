// Federated round protocol: policy, client roster bookkeeping, and the
// observability funnel for multi-client training.
//
// The federated scenario (FedS, arXiv 2406.13225; DGL-KE's multi-tenant
// motivation) runs M simulated clients, each holding a private triple
// shard, for R aggregation rounds of E local epochs; a server merges the
// clients' sparsified entity-row deltas over the parameter-server exchange
// path. This header owns the pieces that are pure cluster bookkeeping —
// the round/client policy, the survivor roster after a recovery plan, and
// the telemetry funnel — so they stay reusable below the training stack
// (dynkge_comm links only obs + util). The trainer itself lives in
// src/core/federated.*, which owns the model state.
//
// Client crashes go through the distributed trainer's supervision loop
// (comm::supervise, recovery.hpp): a death surfaces from Cluster::run as
// RankFailedError, plan_recovery() decides shrink-vs-fail-fast against
// the same ElasticPolicy budget, and the federated rebuild uses
// apply_failures() to map the plan's rank indices back to the original
// client ids so shard ownership and RNG streams survive the shrink.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "comm/recovery.hpp"
#include "obs/telemetry.hpp"

namespace dynkge::comm {

/// Shape of a federated run: M clients x R rounds x E local epochs, plus
/// how much client failure the run absorbs before failing fast.
struct FederatedPolicy {
  int num_clients = 2;   ///< --clients: simulated clients (M)
  int local_epochs = 1;  ///< --local-epochs: local passes per round (E)
  int rounds = 10;       ///< --rounds: aggregation rounds (R)
  ElasticPolicy elastic; ///< --elastic / --max-rank-failures, unchanged
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

/// Per-round observability record (one per client per round).
struct FederatedRoundStats {
  int round = 0;
  int client = 0;          ///< original client id
  bool root = false;       ///< true on the roster's rank-0 client
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

/// Funnels federated rounds into the optional telemetry sinks: one
/// "federated_round" JSONL event per (round, client), and federated.*
/// metrics recorded once per round (by the root client).
class FederatedObserver {
 public:
  explicit FederatedObserver(const obs::TelemetrySinks& sinks)
      : sinks_(sinks) {}

  void on_round(const FederatedRoundStats& stats);

 private:
  obs::TelemetrySinks sinks_;
};

}  // namespace dynkge::comm
