#include "core/federated.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>

#include "comm/recovery.hpp"
#include "core/grad_exchange.hpp"
#include "core/grad_select.hpp"
#include "core/relation_partition.hpp"
#include "core/scaffold.hpp"
#include "core/train_step.hpp"
#include "kge/model_factory.hpp"
#include "kge/negative_sampler.hpp"
#include "kge/serialize.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace dynkge::core {

void validate_federated_policy(const FederatedPolicy& policy) {
  if (policy.num_clients < 1) {
    throw std::invalid_argument(
        "FederatedPolicy: num_clients must be >= 1 (--clients)");
  }
  if (policy.local_epochs < 1) {
    throw std::invalid_argument(
        "FederatedPolicy: local_epochs must be >= 1 (--local-epochs)");
  }
  if (policy.rounds < 1) {
    throw std::invalid_argument(
        "FederatedPolicy: rounds must be >= 1 (--rounds)");
  }
  if (policy.elastic.max_rank_failures < 0) {
    throw std::invalid_argument(
        "FederatedPolicy: max rank failures must be >= 0 "
        "(--max-rank-failures)");
  }
}

std::vector<int> apply_failures(const std::vector<int>& active_clients,
                                const std::vector<int>& failed_ranks) {
  std::vector<int> survivors;
  survivors.reserve(active_clients.size());
  for (std::size_t i = 0; i < active_clients.size(); ++i) {
    const bool failed =
        std::binary_search(failed_ranks.begin(), failed_ranks.end(),
                           static_cast<int>(i));
    if (!failed) survivors.push_back(active_clients[i]);
  }
  return survivors;
}

namespace {

using comm::Communicator;
using comm::ScalarOp;
using kge::Triple;
using kge::TripleList;
using util::Rng;

/// Host-side facts of one cluster attempt, fixed before the clients start
/// and read by every client program. Only rank 0 writes `report` and
/// `newest`.
struct Attempt {
  const kge::Dataset& dataset;
  const FederatedConfig& config;
  const std::vector<int>& active;  ///< original client ids, ascending
  const FederatedSnapshot* resume;  ///< null: cold start
  std::vector<TripleList> shards;   ///< by original client id
  int start_round;
  FederatedReport& report;
  std::shared_ptr<FederatedSnapshot>& newest;
};

/// What one round accumulates on this client.
struct RoundTally {
  double sim_start = 0.0;   ///< simulated clock at the round's start
  double comm_start = 0.0;  ///< modeled comm seconds at the round's start
  double lr = 0.0;          ///< learning rate of the local epochs
  double loss_sum = 0.0;
  std::size_t steps = 0;    ///< examples trained on
  std::size_t rows_before = 0, rows_kept = 0;  ///< delta rows, selection
  std::size_t bytes_on_wire = 0;
};

/// One simulated client for the length of an attempt, and the stages of
/// its program: restore, train locally, exchange the delta, close the
/// round, snapshot, finish. run() strings them together.
class ClientProgram {
 public:
  ClientProgram(const Attempt& attempt, Communicator& comm);
  void run();

 private:
  void restore(const FederatedSnapshot& snap);
  void run_round(int round);
  void train_locally(int round, RoundTally& tally);
  double local_step(const Triple& triple, int label, float learning_rate,
                    float decay);
  void exchange_delta(int round, RoundTally& tally);
  void close_round(int round, const RoundTally& tally);
  void snapshot(int round);
  void finish();

  const Attempt& attempt_;
  const FederatedConfig& config_;
  Communicator& comm_;
  const int rank_;
  /// Original client id: owns the shard, keys the RNG streams and the
  /// residuals in a snapshot, whatever rank the client now runs as.
  const int client_;

  /// The global model, identical on every client by construction and then
  /// by induction (every round applies the same merged average delta).
  std::unique_ptr<kge::KgeModel> model_;
  /// Scratch model holding this client's local view during a round.
  std::unique_ptr<kge::KgeModel> local_model_;
  GradExchange exchange_;
  PlateauScheduler scheduler_;
  const kge::NegativeSampler sampler_;
  const kge::Evaluator evaluator_;
  GradSelector entity_selector_;
  GradSelector relation_selector_;

  kge::ModelGrads step_grads_;
  /// The round's update. Local training records each touched row here; the
  /// exchange sets each to local - global.
  kge::ModelGrads delta_;
  kge::ModelGrads merged_;
};

}  // namespace

FederatedTrainer::FederatedTrainer(const kge::Dataset& dataset,
                                   FederatedConfig config)
    : dataset_(dataset), config_(std::move(config)) {
  validate_federated_policy(config_.policy);
  if (config_.negatives < 1) {
    throw std::invalid_argument(
        "FederatedConfig: negatives must be >= 1 (--negatives)");
  }
  if (config_.strategy.dynamic_topk_arm) {
    throw std::invalid_argument(
        "FederatedConfig: the dynamic Top-K arm belongs to the distributed "
        "trainer (--drs-topk-arm); federated runs pick one selection");
  }
  config_.strategy.validate_topk(dataset_.num_entities(), "FederatedConfig");
  if (!config_.active_clients.empty()) {
    const auto& roster = config_.active_clients;
    for (std::size_t i = 0; i < roster.size(); ++i) {
      if (roster[i] < 0 || roster[i] >= config_.policy.num_clients) {
        throw std::invalid_argument(
            "FederatedConfig: active client id " + std::to_string(roster[i]) +
            " is outside [0, " + std::to_string(config_.policy.num_clients) +
            ")");
      }
      if (i > 0 && roster[i] <= roster[i - 1]) {
        throw std::invalid_argument(
            "FederatedConfig: active_clients must be strictly ascending");
      }
    }
  }
}

void FederatedTrainer::validate_resume(const FederatedSnapshot& snapshot,
                                       const std::vector<int>& active) const {
  if (snapshot.clients.size() != snapshot.client_residuals.size()) {
    throw std::invalid_argument(
        "FederatedSnapshot: clients/client_residuals size mismatch");
  }
  // Survivors of a crash (and explicit shrunk rosters) must all have state
  // in the snapshot; a client the snapshot never saw cannot resume.
  for (const int client : active) {
    if (!std::binary_search(snapshot.clients.begin(), snapshot.clients.end(),
                            client)) {
      throw std::invalid_argument(
          "FederatedSnapshot: active client " + std::to_string(client) +
          " has no state in the resume snapshot");
    }
  }
  const auto probe =
      kge::make_model(config_.model_name, dataset_.num_entities(),
                      dataset_.num_relations(), config_.embedding_rank);
  if (snapshot.entity_params.size() != probe->entities().flat().size() ||
      snapshot.relation_params.size() != probe->relations().flat().size()) {
    throw std::invalid_argument(
        "FederatedSnapshot: parameter shapes do not match this model");
  }
}

FederatedReport FederatedTrainer::train() {
  const util::Stopwatch wall;
  std::vector<int> active = config_.active_clients;
  if (active.empty()) {
    active.resize(static_cast<std::size_t>(config_.policy.num_clients));
    std::iota(active.begin(), active.end(), 0);
  }
  util::ThreadPool pool = host_pool(config_.host_threads);

  // A client death shrinks the roster to the survivors — original client
  // ids, since shard ownership and RNG streams follow the id, not the rank
  // — and the poisoned round replays from the newest round snapshot.
  std::shared_ptr<const FederatedSnapshot> resume = config_.resume;
  std::shared_ptr<FederatedSnapshot> newest;
  FederatedReport report;
  const comm::SupervisionTally tally = comm::supervise(
      static_cast<int>(active.size()), config_.policy.elastic,
      config_.telemetry,
      [&](int) {
        newest = nullptr;
        report = run_attempt(active, resume.get(), pool, newest);
      },
      [&](const comm::RecoveryPlan& plan) {
        if (newest != nullptr) resume = newest;
        active = apply_failures(active, plan.failed_ranks);
        return resume != nullptr ? resume->next_round : 0;
      });
  report.client_failures = tally.failures;
  report.recoveries = tally.recoveries;
  report.recovery_seconds = tally.recovery_seconds;
  if (config_.compute_final_metrics) {
    final_metrics(*report.model, dataset_, config_.seed,
                  config_.eval_max_triples, &pool, report.tca,
                  report.ranking);
  }
  report.wall_seconds = wall.seconds();
  return report;
}

FederatedReport FederatedTrainer::run_attempt(
    const std::vector<int>& active, const FederatedSnapshot* resume,
    util::ThreadPool& pool, std::shared_ptr<FederatedSnapshot>& newest) {
  if (resume != nullptr) validate_resume(*resume, active);
  const obs::TelemetrySinks& tel = config_.telemetry;
  const int start_round =
      resume != nullptr ? std::min(resume->next_round, config_.policy.rounds)
                        : 0;

  FederatedReport report;
  report.strategy_label = config_.strategy.label();
  report.model_name = config_.model_name;
  report.num_clients = config_.policy.num_clients;
  report.active_clients = static_cast<int>(active.size());
  report.rounds = start_round;
  if (resume != nullptr) {
    report.converged = resume->scheduler.stopped;
    if (tel.metrics != nullptr) {
      tel.metrics->counter("federated.resumes").add(1);
    }
  }

  const Attempt attempt{
      .dataset = dataset_,
      .config = config_,
      .active = active,
      .resume = resume,
      // Partitioned for the ORIGINAL client count, so client c's shard is
      // the same triples whether or not other clients have since died — a
      // dead client's data simply drops out (it is private to that
      // client).
      .shards = partition_uniform(
          shuffled_train_triples(dataset_, config_.seed),
          config_.policy.num_clients),
      .start_round = start_round,
      .report = report,
      .newest = newest};
  run_cluster(static_cast<int>(active.size()), config_.network,
              config_.fault_injector, tel.metrics, pool,
              [&](Communicator& comm) { ClientProgram(attempt, comm).run(); });
  report.final_state = newest;
  return report;
}

namespace {

/// A row in `delta` for every row of `step`.
void record_touched(const kge::SparseGrad& step, kge::SparseGrad& delta) {
  for (const kge::SparseGrad::SlotRef& slot : step.sorted_slots()) {
    delta.accumulate_offset(slot.id);
  }
}

/// delta row = local row - global row for every touched row.
void fill_delta(const kge::EmbeddingMatrix& local,
                const kge::EmbeddingMatrix& global, kge::SparseGrad& delta) {
  for (const kge::SparseGrad::SlotRef& slot : delta.sorted_slots()) {
    const auto out = delta.row_at(slot.offset);
    const auto local_row = local.row(slot.id);
    const auto global_row = global.row(slot.id);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = local_row[i] - global_row[i];
    }
  }
}

void apply_delta(const kge::SparseGrad& delta, kge::EmbeddingMatrix& matrix) {
  for (const kge::SparseGrad::SlotRef& slot : delta.sorted_slots()) {
    auto row = matrix.row(slot.id);
    const auto d = delta.row_at(slot.offset);
    for (std::size_t i = 0; i < row.size(); ++i) row[i] += d[i];
  }
}

ClientProgram::ClientProgram(const Attempt& attempt, Communicator& comm)
    : attempt_(attempt),
      config_(attempt.config),
      comm_(comm),
      rank_(comm.rank()),
      client_(attempt.active[static_cast<std::size_t>(comm.rank())]),
      model_(init_model(config_.model_name, attempt.dataset,
                        config_.embedding_rank, config_.seed)),
      local_model_(kge::make_model(
          config_.model_name, attempt.dataset.num_entities(),
          attempt.dataset.num_relations(), config_.embedding_rank)),
      exchange_(comm, config_.strategy, attempt.dataset.num_entities(),
                model_->entities().width(), attempt.dataset.num_relations(),
                model_->relations().width(), config_.telemetry.trace, rank_),
      scheduler_(config_.lr, static_cast<int>(attempt.active.size())),
      sampler_(attempt.dataset),
      evaluator_(attempt.dataset),
      entity_selector_(model_->entities().width(),
                       config_.strategy.selection,
                       config_.strategy.selection_residual,
                       static_cast<std::size_t>(config_.strategy.topk_k)),
      relation_selector_(model_->relations().width(),
                         config_.strategy.selection,
                         config_.strategy.selection_residual,
                         static_cast<std::size_t>(config_.strategy.topk_k)),
      step_grads_(model_->make_grads()),
      delta_(model_->make_grads()),
      merged_(model_->make_grads()) {}

void ClientProgram::run() {
  if (attempt_.resume != nullptr) restore(*attempt_.resume);
  for (int round = attempt_.start_round; round < config_.policy.rounds;
       ++round) {
    comm_.set_fault_epoch(round);
    // A snapshot taken at the plateau stop restores as already-stopped.
    if (scheduler_.should_stop()) break;
    run_round(round);
    if (scheduler_.should_stop()) break;
  }
  if (scheduler_.should_stop() && rank_ == 0) {
    attempt_.report.converged = true;
  }
  comm_.set_fault_epoch(-1);
  finish();
}

/// Restore the state a fresh run would have at the snapshot's round. The
/// inverse of snapshot().
void ClientProgram::restore(const FederatedSnapshot& snap) {
  std::ranges::copy(snap.entity_params, model_->entities().flat().begin());
  std::ranges::copy(snap.relation_params, model_->relations().flat().begin());
  scheduler_.restore(snap.scheduler);
  // Residuals are keyed on the ORIGINAL client id, so a survivor picks up
  // exactly the residual mass it parked before the crash.
  const auto slot = static_cast<std::size_t>(
      std::ranges::lower_bound(snap.clients, client_) - snap.clients.begin());
  auto residuals = kge::decode_residual_maps(
      snap.client_residuals[slot],
      {&model_->entities(), &model_->relations(), &model_->entities(),
       &model_->relations()});
  entity_selector_.restore_residuals(std::move(residuals[0]));
  relation_selector_.restore_residuals(std::move(residuals[1]));
  exchange_.restore_residuals(std::move(residuals[2]),
                              std::move(residuals[3]));
}

void ClientProgram::run_round(int round) {
  RoundTally tally;
  tally.sim_start = comm_.sim_now();
  tally.comm_start = comm_.stats().total_modeled_seconds();
  tally.lr = scheduler_.lr();
  train_locally(round, tally);
  exchange_delta(round, tally);
  close_round(round, tally);
  snapshot(round);
}

/// E local epochs of plain SGD on the private shard, starting from the
/// global model. The shard is reset to its canonical (partition-time)
/// order every round and every shuffle stream is keyed on (seed, client,
/// round, epoch), so no state leaks between rounds — a resumed round
/// replays byte-identically.
void ClientProgram::train_locally(int round, RoundTally& tally) {
  std::ranges::copy(model_->entities().flat(),
                    local_model_->entities().flat().begin());
  std::ranges::copy(model_->relations().flat(),
                    local_model_->relations().flat().begin());
  delta_.clear();

  const auto learning_rate = static_cast<float>(tally.lr);
  const auto decay = static_cast<float>(config_.weight_decay);
  TripleList shard = attempt_.shards[static_cast<std::size_t>(client_)];
  const util::Stopwatch clock;
  for (int epoch = 0; epoch < config_.policy.local_epochs; ++epoch) {
    Rng rng(util::derive_seed(config_.seed, client_, round, epoch, 0xFEDu));
    util::shuffle(shard, rng);
    for (const Triple& triple : shard) {
      tally.loss_sum += local_step(triple, +1, learning_rate, decay);
      for (int n = 0; n < config_.negatives; ++n) {
        tally.loss_sum += local_step(sampler_.corrupt(triple, rng), -1,
                                     learning_rate, decay);
      }
    }
  }
  comm_.sim_add_compute(clock.seconds());
  tally.steps = shard.size() *
                static_cast<std::size_t>(1 + config_.negatives) *
                static_cast<std::size_t>(config_.policy.local_epochs);
}

/// sgd_step on the local model, recording the rows it touched in delta_.
double ClientProgram::local_step(const Triple& triple, int label,
                                 float learning_rate, float decay) {
  const double loss = sgd_step(*local_model_, triple, label, learning_rate,
                               decay, step_grads_);
  record_touched(step_grads_.entity, delta_.entity);
  record_touched(step_grads_.relation, delta_.relation);
  return loss;
}

/// The round's update: delta = local - global for every touched row,
/// sparsified with error feedback, merged over the parameter-server path,
/// and the merged average applied to the global model — the same delta on
/// every client (FedAvg with equal client weights; the uniform partition
/// keeps shards near-equal).
void ClientProgram::exchange_delta(int round, RoundTally& tally) {
  fill_delta(local_model_->entities(), model_->entities(), delta_.entity);
  fill_delta(local_model_->relations(), model_->relations(), delta_.relation);

  tally.rows_before = delta_.entity.num_rows() + delta_.relation.num_rows();
  Rng select_rng(util::derive_seed(config_.seed, client_, round, 0x5E1u));
  entity_selector_.apply(delta_.entity, select_rng);
  relation_selector_.apply(delta_.relation, select_rng);
  tally.rows_kept = delta_.entity.num_rows() + delta_.relation.num_rows();

  ExchangePlan plan;
  plan.transport = Transport::kParameterServer;
  plan.exchange_relations = true;
  Rng exchange_rng(util::derive_seed(config_.seed, client_, round, 0xE7u));
  tally.bytes_on_wire =
      exchange_.exchange(delta_, merged_, plan, exchange_rng).bytes_on_wire;

  apply_delta(merged_.entity, model_->entities());
  apply_delta(merged_.relation, model_->relations());
}

/// Round accounting in fixed rank order (identical on every client):
/// validation, cluster-max times, the mean loss, the plateau decision, one
/// "federated_round" event per client, and rank 0's federated.* metrics
/// and record.
void ClientProgram::close_round(int round, const RoundTally& tally) {
  double val_accuracy = 0.0;
  if (rank_ == 0) {
    val_accuracy = evaluator_.validation_accuracy(
        *model_, util::derive_seed(config_.seed, round, 0xACCu),
        config_.valid_max_triples);
  }
  FederatedRoundStats stats;
  stats.val_accuracy = comm_.allreduce_scalar(val_accuracy, ScalarOp::kMax);
  stats.comm_seconds = comm_.allreduce_scalar(
      comm_.stats().total_modeled_seconds() - tally.comm_start,
      ScalarOp::kMax);
  stats.sim_seconds = comm_.allreduce_scalar(
      comm_.sim_now() - tally.sim_start, ScalarOp::kMax);
  stats.mean_loss =
      comm_.allreduce_scalar(tally.loss_sum, ScalarOp::kSum) /
      std::max(1.0, comm_.allreduce_scalar(static_cast<double>(tally.steps),
                                           ScalarOp::kSum));
  scheduler_.observe(stats.val_accuracy);

  stats.round = round;
  stats.client = client_;
  stats.active_clients = static_cast<int>(attempt_.active.size());
  stats.local_epochs = config_.policy.local_epochs;
  stats.selection = to_string(config_.strategy.selection);
  stats.keep_rate = tally.rows_before == 0
                        ? 1.0
                        : static_cast<double>(tally.rows_kept) /
                              static_cast<double>(tally.rows_before);
  stats.bytes_on_wire = tally.bytes_on_wire;
  stats.lr = tally.lr;
  const obs::TelemetrySinks& tel = config_.telemetry;
  if (tel.events != nullptr) {
    util::JsonWriter json;
    json.begin_object()
        .kv("event", "federated_round")
        .kv("round", stats.round)
        .kv("client", stats.client)
        .kv("active_clients", stats.active_clients)
        .kv("local_epochs", stats.local_epochs)
        .kv("selection", stats.selection)
        .kv("keep_rate", stats.keep_rate)
        .kv("bytes_on_wire", stats.bytes_on_wire)
        .kv("loss", stats.mean_loss)
        .kv("lr", stats.lr)
        .kv("val_accuracy", stats.val_accuracy)
        .kv("sim_seconds", stats.sim_seconds)
        .kv("comm_seconds", stats.comm_seconds)
        .end_object();
    tel.events->write_line(json.str());
  }
  if (rank_ != 0) return;

  if (tel.metrics != nullptr) {
    tel.metrics->counter("federated.rounds").add(1);
    tel.metrics->counter("federated.bytes_on_wire").add(stats.bytes_on_wire);
    tel.metrics->gauge("federated.active_clients")
        .set(static_cast<double>(stats.active_clients));
    tel.metrics->gauge("federated.val_accuracy").set(stats.val_accuracy);
    tel.metrics->gauge("federated.loss").set(stats.mean_loss);
    tel.metrics->histogram("federated.round_sim_seconds")
        .record(stats.sim_seconds);
  }
  FederatedReport& report = attempt_.report;
  report.round_log.push_back(stats);
  report.rounds = round + 1;
  report.final_val_accuracy = stats.val_accuracy;
  report.total_sim_seconds += stats.sim_seconds;
}

/// Collective, charge-free: the round snapshot. Residual stores are
/// client-private, so every client's blob is gathered and a survivor of
/// the NEXT round's crash can restore its own. Built every round
/// regardless of elastic mode: the collective count stays uniform and the
/// final snapshot doubles as the report's final_state.
void ClientProgram::snapshot(int round) {
  const std::string local_blob = kge::encode_residual_maps(
      {&entity_selector_.residuals(), &relation_selector_.residuals(),
       &exchange_.entity_residuals(), &exchange_.relation_residuals()});
  // One RESD blob per client, read straight from its slot.
  std::vector<std::string> residuals;
  comm_.allgatherv_slots(
      std::as_bytes(std::span<const char>(local_blob.data(),
                                          local_blob.size())),
      [&](Communicator::Slots slots) {
        if (rank_ != 0) return;
        for (const std::span<const std::byte> slot : slots) {
          residuals.emplace_back(reinterpret_cast<const char*>(slot.data()),
                                 slot.size());
        }
      },
      /*charge_cost=*/false);
  if (rank_ != 0) return;

  auto snap = std::make_shared<FederatedSnapshot>();
  snap->next_round = round + 1;
  snap->entity_params.assign(model_->entities().flat().begin(),
                             model_->entities().flat().end());
  snap->relation_params.assign(model_->relations().flat().begin(),
                               model_->relations().flat().end());
  snap->scheduler = scheduler_.state();
  snap->clients = attempt_.active;
  snap->client_residuals = std::move(residuals);
  // Rank 0 only throws from collectives, so this write completes before
  // any crash can unwind this frame; the cohort join orders it before the
  // supervisor (or the caller) reads it.
  attempt_.newest = snap;
}

/// Verify the replica-consistency invariant and (rank 0) fill the report.
void ClientProgram::finish() {
  const bool consistent =
      replicas_consistent(comm_, *model_, /*with_relations=*/true);
  if (rank_ != 0) return;
  FederatedReport& report = attempt_.report;
  report.replicas_consistent = consistent;
  report.model = std::move(model_);
}

}  // namespace
}  // namespace dynkge::core
