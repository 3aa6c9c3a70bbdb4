#include "core/trainer.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "comm/recovery.hpp"
#include "core/comm_selector.hpp"
#include "core/grad_exchange.hpp"
#include "core/grad_select.hpp"
#include "core/hard_negatives.hpp"
#include "core/relation_partition.hpp"
#include "core/scaffold.hpp"
#include "core/train_step.hpp"
#include "kge/adam.hpp"
#include "kge/checkpoint_dir.hpp"
#include "kge/model_factory.hpp"
#include "kge/serialize.hpp"
#include "util/json_writer.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_clock.hpp"

namespace dynkge::core {
namespace {

using comm::Communicator;
using comm::ScalarOp;
using kge::Triple;
using kge::TripleList;
using util::Rng;
using util::ThreadCpuTimer;

// Residual blobs (the RESD section payload) are encoded by
// kge::encode_residual_maps: this trainer packs 4 stores per rank (entity
// selector, relation selector, exchange entity, exchange relation).
using kge::decode_residual_maps;
using kge::encode_residual_maps;

void check_resume_field(const std::string& field, const std::string& expected,
                        const std::string& found) {
  if (expected != found) {
    throw std::invalid_argument(
        "TrainConfig::checkpoint.resume: snapshot was written by a "
        "different run (" +
        field + ": this run has '" + expected + "', snapshot has '" + found +
        "')");
  }
}

/// The "name=value" fields of a StrategyConfig::spec().
std::vector<std::pair<std::string, std::string>> spec_fields(
    const std::string& spec) {
  std::vector<std::pair<std::string, std::string>> fields;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    const std::size_t end = std::min(spec.find(';', begin), spec.size());
    const std::string field = spec.substr(begin, end - begin);
    const std::size_t equals = field.find('=');
    fields.emplace_back(field.substr(0, equals),
                        equals == std::string::npos ? ""
                                                    : field.substr(equals + 1));
    begin = end + 1;
  }
  return fields;
}

/// Compares two StrategyConfig::spec() strings field by field and names
/// the first field that differs ("strategy.negatives_sampled"); a spec of
/// other fields is reported whole.
void check_resume_strategy(const std::string& expected,
                           const std::string& found) {
  const auto ours = spec_fields(expected);
  const auto theirs = spec_fields(found);
  const bool same_fields =
      ours.size() == theirs.size() &&
      std::equal(ours.begin(), ours.end(), theirs.begin(),
                 [](const auto& a, const auto& b) { return a.first == b.first; });
  if (!same_fields) return check_resume_field("strategy", expected, found);
  for (std::size_t i = 0; i < ours.size(); ++i) {
    check_resume_field("strategy." + ours[i].first, ours[i].second,
                       theirs[i].second);
  }
}

/// Host-side facts of one cluster attempt, fixed before the ranks start
/// and read by every rank program. Only rank 0 writes `report`.
struct Attempt {
  const kge::Dataset& dataset;
  const TrainConfig& config;
  int num_nodes;
  const kge::TrainingSnapshot* resume;  ///< null: cold start
  std::string* live_snapshot;           ///< null: no elastic recovery
  std::vector<TripleList> shards;
  RelationPartition relation_partition;
  std::size_t steps_per_epoch;
  int start_epoch;
  TrainReport& report;
};

/// One epoch's schedule on this rank, fixed before its first step.
struct EpochPlan {
  int epoch;
  bool probe;
  Transport transport;
  SelectionMode selection;
  double lr;
  double sim_start;   ///< simulated clock at the epoch's start
  double comm_start;  ///< modeled comm seconds at the epoch's start
};

/// What one epoch's steps accumulate on this rank.
struct EpochTally {
  double loss_sum = 0.0;
  std::size_t loss_count = 0;
  double rows_before = 0.0, rows_sent = 0.0, rows_merged = 0.0;
  std::size_t bytes = 0, ss_scored = 0, ss_kept = 0;
};

/// Rows [lo, hi) of each matrix in turn, back to back: what a rank
/// publishes for the relations it owns.
std::vector<float> pack_rows(
    std::initializer_list<const kge::EmbeddingMatrix*> matrices,
    kge::RelationId lo, kge::RelationId hi) {
  std::vector<float> packed;
  for (const kge::EmbeddingMatrix* matrix : matrices) {
    for (kge::RelationId r = lo; r < hi; ++r) {
      const auto row = matrix->row(r);
      packed.insert(packed.end(), row.begin(), row.end());
    }
  }
  return packed;
}

/// The inverse of pack_rows: overwrite rows [lo, hi) of each matrix in
/// turn from a published slot. Rows of a matrix are contiguous, so each
/// matrix takes one copy.
void unpack_rows(std::span<const std::byte> packed,
                 std::initializer_list<kge::EmbeddingMatrix*> matrices,
                 kge::RelationId lo, kge::RelationId hi) {
  if (hi <= lo) return;
  const std::byte* src = packed.data();
  for (kge::EmbeddingMatrix* matrix : matrices) {
    const std::size_t bytes =
        static_cast<std::size_t>(hi - lo) * matrix->row(lo).size_bytes();
    std::memcpy(matrix->row(lo).data(), src, bytes);
    src += bytes;
  }
}

/// Everything one simulated rank owns for the length of an attempt, and
/// the stages of its program: restore, step, close the epoch, checkpoint,
/// finish. run() strings them together.
class RankProgram {
 public:
  RankProgram(const Attempt& attempt, Communicator& comm);
  void run();

 private:
  // ---- snapshot state in, snapshot state out ---------------------------
  void restore(const kge::TrainingSnapshot& snap);
  kge::TrainingSnapshot build_snapshot(int epoch) const;
  void gather_snapshot_parts(kge::TrainingSnapshot* snap);

  // ---- one epoch -------------------------------------------------------
  void run_epoch(int epoch);
  void run_step(std::size_t step, const EpochPlan& plan, Rng& rng,
                EpochTally& tally);
  double validate(int epoch);
  void close_epoch(const EpochPlan& plan, const EpochTally& tally,
                   double val_accuracy);

  // ---- checkpoint writer -----------------------------------------------
  void checkpoint(int epoch);
  void write_to_disk(int epoch, const std::string& sealed);

  // ---- end of training ---------------------------------------------------
  void finish();

  void charge_compute(double seconds) {
    comm_.sim_add_compute(seconds);
    compute_seconds_ += seconds;
  }

  const Attempt& attempt_;
  const TrainConfig& config_;
  const StrategyConfig& strategy_;
  const obs::TelemetrySinks& tel_;
  Communicator& comm_;
  const int rank_;
  /// Measured compute seconds; reduced in fixed rank order after the final
  /// barrier (the value is a timing measurement and varies run to run,
  /// but the reduction order never does).
  double compute_seconds_ = 0.0;

  std::unique_ptr<kge::KgeModel> model_;
  kge::RowAdam entity_opt_;
  kge::RowAdam relation_opt_;
  GradExchange exchange_;
  CommModeSelector selector_;
  PlateauScheduler scheduler_;
  const kge::NegativeSampler sampler_;
  const kge::Evaluator evaluator_;
  TripleList shard_;
  GradSelector entity_selector_;
  GradSelector relation_selector_;

  // Step buffers, reused across steps so the hot path stops allocating.
  kge::ModelGrads local_;
  kge::ModelGrads merged_;
  TripleList negatives_;
  std::vector<std::size_t> negative_offsets_;
  HardNegativeScratch hn_scratch_;
  StepScratch step_scratch_;

  /// Snapshots this run and earlier runs wrote (persistent total).
  int checkpoints_total_;
  /// Disk-fault budget (test hook) and last-good retention tracking; rank
  /// 0 is the sole writer, so only its copies are ever consulted.
  int disk_faults_left_;
  std::string last_good_history_;

  // Registry instruments, resolved once per rank (find-or-create takes a
  // mutex); recording through the cached pointers is a relaxed atomic per
  // event. All null without a registry.
  obs::Counter* m_steps_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
  obs::Counter* m_rows_sent_ = nullptr;
  obs::Counter* m_ss_scored_ = nullptr;
  obs::Counter* m_ss_kept_ = nullptr;
  obs::LatencyHistogram* m_step_seconds_ = nullptr;
};

}  // namespace

DistributedTrainer::DistributedTrainer(const kge::Dataset& dataset,
                                       TrainConfig config)
    : dataset_(dataset), config_(std::move(config)) {
  if (config_.num_nodes < 1) {
    throw std::invalid_argument("TrainConfig: num_nodes must be >= 1");
  }
  if (config_.batch_size < 1) {
    throw std::invalid_argument("TrainConfig: batch_size must be >= 1");
  }
  if (config_.max_epochs < 1) {
    throw std::invalid_argument("TrainConfig: max_epochs must be >= 1");
  }
  if (config_.host_threads < 0) {
    throw std::invalid_argument(
        "TrainConfig: host_threads must be >= 0 (0 = hardware concurrency)");
  }
  if (config_.strategy.comm == CommMode::kDynamic &&
      config_.strategy.dynamic_probe_interval < 2) {
    // Surface the CommModeSelector contract at config time instead of from
    // inside a rank program (see comm_selector.cpp for the rationale).
    throw std::invalid_argument(
        "TrainConfig: dynamic comm mode requires dynamic_probe_interval >= 2");
  }
  const auto& s = config_.strategy;
  if (s.negatives_sampled < 1 || s.negatives_used < 1 ||
      s.negatives_used > s.negatives_sampled) {
    throw std::invalid_argument(
        "TrainConfig: require 1 <= negatives_used <= negatives_sampled");
  }
  if (config_.fault_retry_limit < 1) {
    throw std::invalid_argument(
        "TrainConfig: fault retry limit must be >= 1 (--fault-retry-limit)");
  }
  if (config_.elastic.max_rank_failures < 0) {
    throw std::invalid_argument(
        "TrainConfig: max rank failures must be >= 0 (--max-rank-failures)");
  }
  if (config_.checkpoint.keep < 1) {
    throw std::invalid_argument(
        "TrainConfig: checkpoint keep must be >= 1 (--checkpoint-keep)");
  }
  const std::string& on_error = config_.checkpoint.on_error;
  if (on_error != "fail" && on_error != "skip" && on_error != "retry") {
    throw std::invalid_argument(
        "TrainConfig: checkpoint error policy must be fail, skip, or retry "
        "(--checkpoint-on-error), got '" + on_error + "'");
  }
  s.validate_topk(dataset_.num_entities(), "TrainConfig");
  if (s.dynamic_topk_arm && s.comm != CommMode::kDynamic) {
    throw std::invalid_argument(
        "TrainConfig: the Top-K probe arm requires the dynamic comm mode "
        "(--drs-topk-arm needs --strategy drs*)");
  }
}

TrainReport DistributedTrainer::train() {
  const util::Stopwatch wall;
  const obs::TelemetrySinks& tel = config_.telemetry;
  const comm::ElasticPolicy& policy = config_.elastic;

  // ---- checkpoint / resume setup (host side, once per train()) ---------
  const TrainConfig::CheckpointConfig& ckpt = config_.checkpoint;
  std::unique_ptr<kge::TrainingSnapshot> resume_state;
  if (!ckpt.dir.empty()) {
    if (ckpt.every < 1) {
      throw std::invalid_argument(
          "TrainConfig::checkpoint: every must be >= 1");
    }
    ::mkdir(ckpt.dir.c_str(), 0755);  // EEXIST is fine
    if (ckpt.resume) {
      // Scan the directory newest-first, falling back past corrupt
      // candidates to the next-older valid snapshot (checkpoint_dir.hpp).
      kge::ResumeScan scan = kge::load_newest_valid_snapshot(ckpt.dir);
      for (const kge::RejectedSnapshot& r : scan.rejected) {
        DYNKGE_LOG_INFO("resume: skipping corrupt snapshot " << r.path
                                                             << ": "
                                                             << r.error);
      }
      if (scan.found) {
        resume_state = std::make_unique<kge::TrainingSnapshot>(
            std::move(scan.snapshot));
        validate_resume_snapshot(*resume_state, config_.num_nodes);
        DYNKGE_LOG_INFO("resuming from "
                        << scan.path << " at epoch "
                        << std::min(resume_state->trainer.next_epoch,
                                    config_.max_epochs));
      }
    }
  }

  // The rank programs run on one host pool for every attempt below, and
  // the final ranking after them. Wall time scales with min(num_nodes,
  // cores); the simulated clock is unaffected.
  util::ThreadPool pool = host_pool(config_.host_threads);

  // A permanent rank failure shrinks the world to the survivors, rolls
  // state back to the newest in-run snapshot (per-epoch, in memory — no
  // checkpoint dir needed) and replays the poisoned epoch. The replay is
  // byte-identical to a fresh run at the new world size resumed from the
  // same snapshot: every restored quantity is keyed on the new rank index
  // and the poisoned epoch's partial work is discarded entirely.
  TrainReport report;
  std::string live_snapshot;
  int rebuilds = 0;
  const comm::SupervisionTally tally = comm::supervise(
      config_.num_nodes, policy, tel,
      [&](int world) {
        live_snapshot.clear();
        report = run_attempt(world, resume_state.get(), pool,
                             policy.enabled ? &live_snapshot : nullptr);
      },
      [&](const comm::RecoveryPlan&) {
        // Roll back to the newest epoch snapshot this attempt produced; if
        // the crash predated the first one, fall back to the attempt's own
        // starting state (disk snapshot or cold start).
        if (!live_snapshot.empty()) {
          resume_state = std::make_unique<kge::TrainingSnapshot>(
              kge::deserialize_snapshot(live_snapshot,
                                        "elastic recovery snapshot"));
        }
        if (++rebuilds == config_.elastic.test_kill_in_recovery) {
          // Harness hook: the host dies mid-rebuild; --resume must then
          // recover from the last disk snapshot (tests/kill_restart.py).
          ::raise(SIGKILL);
        }
        return resume_state != nullptr ? resume_state->trainer.next_epoch
                                       : 0;
      });
  report.rank_failures = tally.failures;
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

void DistributedTrainer::validate_resume_snapshot(
    const kge::TrainingSnapshot& snapshot, int world_size) const {
  const kge::TrainerSnapshot& t = snapshot.trainer;
  check_resume_field("model", config_.model_name, t.model_name);
  check_resume_strategy(config_.strategy.spec(), t.strategy);
  check_resume_field("embedding_rank",
                     std::to_string(config_.embedding_rank),
                     std::to_string(t.embedding_rank));
  // World size must match exactly — except in elastic mode, where a
  // snapshot from a *larger* world is resumable by a shrunk one
  // (shrink-resume: restored state is keyed on the new, smaller rank
  // indices; see DESIGN.md section 8).
  if (!(config_.elastic.enabled && t.num_nodes > world_size)) {
    check_resume_field("num_nodes", std::to_string(world_size),
                       std::to_string(t.num_nodes));
  }
  check_resume_field("seed", std::to_string(config_.seed),
                     std::to_string(t.seed));
  check_resume_field("num_entities", std::to_string(dataset_.num_entities()),
                     std::to_string(snapshot.model->entities().rows()));
  check_resume_field("num_relations",
                     std::to_string(dataset_.num_relations()),
                     std::to_string(snapshot.model->relations().rows()));
  // The per-rank RNG streams are re-derived, not stored; the stored seeds
  // exist to verify the derivation contract still holds. Under
  // shrink-resume only the surviving rank indices matter.
  const int verify_ranks = std::min(world_size, t.num_nodes);
  for (int r = 0; r < verify_ranks; ++r) {
    const std::uint64_t expected =
        util::derive_seed(config_.seed, r, t.next_epoch, 0xE0u);
    if (snapshot.rank_rng_seeds[static_cast<std::size_t>(r)] != expected) {
      throw std::invalid_argument(
          "TrainConfig::checkpoint.resume: snapshot RNG stream for rank " +
          std::to_string(r) +
          " does not match this build's seed derivation");
    }
  }
}

TrainReport DistributedTrainer::run_attempt(int world_size,
                                            const kge::TrainingSnapshot* resume,
                                            util::ThreadPool& pool,
                                            std::string* live_snapshot) {
  const int num_nodes = world_size;
  const StrategyConfig& strategy = config_.strategy;
  const obs::TelemetrySinks& tel = config_.telemetry;

  // Track layout: tid = rank for the simulated ranks, tid = the configured
  // num_nodes for host-side work (as in comm::supervise) in every attempt.
  const int host_track = config_.num_nodes;
  if (tel.trace != nullptr) {
    for (int r = 0; r < num_nodes; ++r) {
      tel.trace->set_thread_name(r, "rank " + std::to_string(r));
    }
    tel.trace->set_thread_name(host_track, "host");
  }

  // ---- Partition the training triples (host side, deterministic) ------
  const TripleList train_triples =
      shuffled_train_triples(dataset_, config_.seed);
  std::vector<TripleList> shards;
  RelationPartition relation_partition;
  if (strategy.relation_partition) {
    const obs::TraceSpan span(tel.trace, "relation_partition.setup",
                              host_track);
    relation_partition = partition_by_relation(train_triples, num_nodes,
                                               dataset_.num_relations());
    shards = relation_partition.shards;
  } else {
    shards = partition_uniform(train_triples, num_nodes);
  }
  std::size_t max_shard = 0;
  for (const auto& shard : shards) {
    max_shard = std::max(max_shard, shard.size());
  }

  // Validation, mkdir, and the disk load all happened in train(); `resume`
  // arrives pre-validated (or null for a cold start).
  const int start_epoch =
      resume != nullptr ? std::min(resume->trainer.next_epoch,
                                   config_.max_epochs)
                        : 0;
  TrainReport report;
  report.strategy_label = strategy.label();
  report.strategy_spec = strategy.spec();
  report.model_name = config_.model_name;
  report.num_nodes = num_nodes;
  report.start_epoch = start_epoch;
  if (resume != nullptr) {
    report.epochs = start_epoch;
    report.total_sim_seconds = resume->trainer.total_sim_seconds;
    report.final_val_accuracy = resume->trainer.final_val_accuracy;
    report.converged = resume->scheduler.stopped;
    if (tel.metrics != nullptr) tel.metrics->counter("train.resumes").add(1);
  }
  report.host_threads = static_cast<int>(pool.size());

  const Attempt attempt{
      .dataset = dataset_,
      .config = config_,
      .num_nodes = num_nodes,
      .resume = resume,
      .live_snapshot = live_snapshot,
      .shards = std::move(shards),
      .relation_partition = std::move(relation_partition),
      // Every rank must run the same number of synchronized steps per
      // epoch.
      .steps_per_epoch = std::max<std::size_t>(
          1, (max_shard + config_.batch_size - 1) / config_.batch_size),
      .start_epoch = start_epoch,
      .report = report};

  run_cluster(num_nodes, config_.network, config_.fault_injector, tel.metrics,
              pool,
              [&](Communicator& comm) { RankProgram(attempt, comm).run(); });
  return report;
}

namespace {

std::unique_ptr<kge::KgeModel> make_replica(const TrainConfig& config,
                                            const kge::Dataset& dataset) {
  auto model = init_model(config.model_name, dataset, config.embedding_rank,
                          config.seed);
  if (config.warm_start != nullptr) {
    const auto& source = *config.warm_start;
    if (source.entities().rows() != model->entities().rows() ||
        source.entities().width() != model->entities().width() ||
        source.relations().rows() != model->relations().rows() ||
        source.relations().width() != model->relations().width()) {
      throw std::invalid_argument(
          "TrainConfig::warm_start: parameter shapes do not match");
    }
    std::ranges::copy(source.entities().flat(),
                      model->entities().flat().begin());
    std::ranges::copy(source.relations().flat(),
                      model->relations().flat().begin());
  }
  return model;
}

RankProgram::RankProgram(const Attempt& attempt, Communicator& comm)
    : attempt_(attempt),
      config_(attempt.config),
      strategy_(attempt.config.strategy),
      tel_(attempt.config.telemetry),
      comm_(comm),
      rank_(comm.rank()),
      model_(make_replica(attempt.config, attempt.dataset)),
      entity_opt_(attempt.dataset.num_entities(), model_->entities().width(),
                  {.weight_decay = config_.weight_decay}),
      relation_opt_(attempt.dataset.num_relations(),
                    model_->relations().width(),
                    {.weight_decay = config_.weight_decay}),
      exchange_(comm, strategy_, attempt.dataset.num_entities(),
                model_->entities().width(), attempt.dataset.num_relations(),
                model_->relations().width(), tel_.trace, rank_),
      selector_(strategy_.comm, strategy_.dynamic_probe_interval,
                strategy_.dynamic_topk_arm),
      scheduler_(config_.lr, attempt.num_nodes),
      sampler_(attempt.dataset),
      evaluator_(attempt.dataset),
      shard_(attempt.shards[rank_]),
      entity_selector_(model_->entities().width(), strategy_.selection,
                       strategy_.selection_residual,
                       static_cast<std::size_t>(strategy_.topk_k)),
      relation_selector_(model_->relations().width(), strategy_.selection,
                         strategy_.selection_residual,
                         static_cast<std::size_t>(strategy_.topk_k)),
      local_(model_->make_grads()),
      merged_(model_->make_grads()),
      checkpoints_total_(attempt.resume != nullptr
                             ? attempt.resume->trainer.checkpoints_written
                             : 0),
      disk_faults_left_(config_.checkpoint.test_disk_fault_at_epoch >= 0
                            ? config_.checkpoint.test_disk_fault_attempts
                            : 0) {
  if (tel_.metrics != nullptr) {
    m_steps_ = &tel_.metrics->counter("train.steps");
    m_bytes_ = &tel_.metrics->counter("train.bytes_on_wire");
    m_rows_sent_ = &tel_.metrics->counter("train.entity_rows_sent");
    m_ss_scored_ = &tel_.metrics->counter("train.ss_candidates_scored");
    m_ss_kept_ = &tel_.metrics->counter("train.ss_candidates_kept");
    m_step_seconds_ = &tel_.metrics->histogram("train.step_compute_seconds");
  }
}

void RankProgram::run() {
  if (attempt_.resume != nullptr) restore(*attempt_.resume);
  for (int epoch = attempt_.start_epoch; epoch < config_.max_epochs;
       ++epoch) {
    // Epoch-scoped fault addressing (kind@RANK@eEPOCH): tells the
    // injector which epoch this rank's upcoming collectives belong to.
    comm_.set_fault_epoch(epoch);
    // A snapshot taken at the plateau stop restores as already-stopped;
    // running even one more epoch would diverge from the uninterrupted
    // run.
    if (scheduler_.should_stop()) break;
    run_epoch(epoch);
    if (scheduler_.should_stop()) break;
  }
  if (scheduler_.should_stop() && rank_ == 0) attempt_.report.converged = true;
  comm_.set_fault_epoch(-1);
  finish();
}

// ---- snapshot state in, snapshot state out -------------------------------

/// Restore every piece of state a fresh run would have at the snapshot's
/// epoch. The inverse of build_snapshot + gather_snapshot_parts.
void RankProgram::restore(const kge::TrainingSnapshot& snap) {
  std::ranges::copy(snap.model->entities().flat(),
                    model_->entities().flat().begin());
  std::ranges::copy(snap.model->relations().flat(),
                    model_->relations().flat().begin());
  entity_opt_.restore(snap.entity_opt.step, snap.entity_opt.m,
                      snap.entity_opt.v);
  relation_opt_.restore(snap.relation_opt.step, snap.relation_opt.m,
                        snap.relation_opt.v);
  scheduler_.restore({snap.scheduler.lr, snap.scheduler.best_metric,
                      snap.scheduler.stale_epochs, snap.scheduler.stopped});
  selector_.restore({snap.comm_selector.switched,
                     snap.comm_selector.last_allreduce_time,
                     snap.comm_selector.epochs_recorded,
                     snap.comm_selector.allreduce_epochs,
                     snap.comm_selector.committed_arm,
                     snap.comm_selector.base_probe_time,
                     snap.comm_selector.topk_probe_time});
  auto residuals = decode_residual_maps(
      snap.rank_residuals[rank_],
      {&model_->entities(), &model_->relations(), &model_->entities(),
       &model_->relations()});
  entity_selector_.restore_residuals(std::move(residuals[0]));
  relation_selector_.restore_residuals(std::move(residuals[1]));
  exchange_.restore_residuals(std::move(residuals[2]),
                              std::move(residuals[3]));
  // The shard shuffle is cumulative (each epoch shuffles the previous
  // epoch's order in place), so replay the completed epochs' shuffles to
  // put the shard in the exact order the next epoch expects.
  for (int epoch = 0; epoch < attempt_.start_epoch; ++epoch) {
    Rng replay_rng(util::derive_seed(config_.seed, rank_, epoch, 0xE0u));
    util::shuffle(shard_, replay_rng);
  }
}

/// Rank 0: the training state after `epoch` that rank 0 holds itself, as
/// restore() reads it; gather_snapshot_parts() adds the rest.
kge::TrainingSnapshot RankProgram::build_snapshot(int epoch) const {
  const int num_nodes = attempt_.num_nodes;
  kge::TrainingSnapshot snap;
  // A copy: overlaying the owners' relation rows must not touch the live
  // replica.
  snap.model = kge::clone_model(*model_);
  snap.entity_opt = {entity_opt_.step(), entity_opt_.moment1(),
                     entity_opt_.moment2()};
  snap.relation_opt = {relation_opt_.step(), relation_opt_.moment1(),
                       relation_opt_.moment2()};
  snap.trainer.next_epoch = epoch + 1;
  snap.trainer.num_nodes = num_nodes;
  snap.trainer.seed = config_.seed;
  snap.trainer.model_name = config_.model_name;
  snap.trainer.embedding_rank = config_.embedding_rank;
  snap.trainer.strategy = strategy_.spec();
  snap.trainer.total_sim_seconds = attempt_.report.total_sim_seconds;
  snap.trainer.final_val_accuracy = attempt_.report.final_val_accuracy;
  snap.trainer.checkpoints_written = checkpoints_total_;
  const auto scheduler_state = scheduler_.state();
  snap.scheduler = {scheduler_state.lr, scheduler_state.best_metric,
                    scheduler_state.stale_epochs, scheduler_state.stopped};
  const auto selector_state = selector_.state();
  snap.comm_selector = {selector_state.switched,
                        selector_state.last_allreduce_time,
                        selector_state.epochs_recorded,
                        selector_state.allreduce_epochs,
                        selector_state.committed_arm,
                        selector_state.base_probe_time,
                        selector_state.topk_probe_time};
  snap.rank_rng_seeds.reserve(num_nodes);
  for (int r = 0; r < num_nodes; ++r) {
    snap.rank_rng_seeds.push_back(
        util::derive_seed(config_.seed, r, epoch + 1, 0xE0u));
  }
  return snap;
}

/// Collective (every rank): the rank-private parts of a snapshot — each
/// rank's encoded residual stores (one RESD blob per rank) and, under
/// relation partition, each owner's relation rows and Adam moments (rank
/// 0's copies of relations it does not own are stale). Rank 0 reads them
/// from the slots straight into `snap`; the other ranks pass null and
/// only publish. Charge-free, so the simulated timeline is untouched.
void RankProgram::gather_snapshot_parts(kge::TrainingSnapshot* snap) {
  const std::string local_blob = encode_residual_maps(
      {&entity_selector_.residuals(), &relation_selector_.residuals(),
       &exchange_.entity_residuals(), &exchange_.relation_residuals()});
  comm_.allgatherv_slots(
      std::as_bytes(std::span<const char>(local_blob.data(),
                                          local_blob.size())),
      [&](Communicator::Slots slots) {
        if (snap == nullptr) return;
        for (const std::span<const std::byte> slot : slots) {
          snap->rank_residuals.emplace_back(
              reinterpret_cast<const char*>(slot.data()), slot.size());
        }
      },
      /*charge_cost=*/false);
  if (!strategy_.relation_partition) return;

  const auto& ranges = attempt_.relation_partition.relation_range;
  const std::vector<float> mine = pack_rows(
      {&model_->relations(), &relation_opt_.moment1(),
       &relation_opt_.moment2()},
      ranges[rank_].first, ranges[rank_].second);
  comm_.allgatherv_slots(
      std::as_bytes(std::span<const float>(mine)),
      [&](Communicator::Slots slots) {
        if (snap == nullptr) return;
        for (std::size_t r = 0; r < slots.size(); ++r) {
          unpack_rows(slots[r],
                      {&snap->model->relations(), &snap->relation_opt.m,
                       &snap->relation_opt.v},
                      ranges[r].first, ranges[r].second);
        }
      },
      /*charge_cost=*/false);
}

// ---- one epoch ----------------------------------------------------------

void RankProgram::run_epoch(int epoch) {
  // With the Top-K arm the selection varies per epoch (dense on baseline
  // epochs, the scheduled arm on probes, the committed arm after the
  // switch); otherwise this is just strategy.selection.
  const EpochPlan plan{
      .epoch = epoch,
      .probe = selector_.is_probe(epoch),
      .transport = selector_.transport_for(epoch),
      .selection = selector_.selection_for(epoch, strategy_.selection),
      .lr = scheduler_.lr(),
      .sim_start = comm_.sim_now(),
      .comm_start = comm_.stats().total_modeled_seconds()};
  const obs::TraceSpan epoch_span(tel_.trace, "epoch", rank_);

  Rng epoch_rng(util::derive_seed(config_.seed, rank_, epoch, 0xE0u));
  util::shuffle(shard_, epoch_rng);

  entity_opt_.set_learning_rate(plan.lr);
  relation_opt_.set_learning_rate(plan.lr);

  EpochTally tally;
  for (std::size_t step = 0; step < attempt_.steps_per_epoch; ++step) {
    run_step(step, plan, epoch_rng, tally);
  }
  const double val_accuracy = validate(epoch);
  close_epoch(plan, tally, val_accuracy);
  checkpoint(epoch);
}

/// One synchronous SGD step: hard negatives, forward/backward, gradient
/// row selection, the exchange, and the sparse Adam update.
void RankProgram::run_step(std::size_t step, const EpochPlan& plan,
                           Rng& rng, EpochTally& tally) {
  double compute_seconds = 0.0;
  {
    ThreadCpuTimer timer(compute_seconds);
    local_.clear();
    const std::size_t size = config_.batch_size;
    const std::size_t begin = std::min(step * size, shard_.size());
    const std::size_t end = std::min(begin + size, shard_.size());
    const auto batch =
        std::span<const Triple>(shard_).subspan(begin, end - begin);

    // Examples this rank trains on: positives + selected negatives.
    const std::size_t local_examples =
        batch.size() * (1 + static_cast<std::size_t>(strategy_.negatives_used));
    const float inv_examples =
        local_examples == 0 ? 0.0f : 1.0f / static_cast<float>(local_examples);

    // Strategy 5 first, for the whole batch: the model is static during
    // gradient accumulation (gradients go to `local_`, not the parameters)
    // and scoring consumes no RNG, so selecting every positive's negatives
    // up front is bit-identical to interleaving selection with the loss
    // pass — and gives the trace one clean hard-negative span per step.
    negatives_.clear();
    negative_offsets_.assign(1, 0);
    {
      const obs::TraceSpan span(tel_.trace, "hard_negatives", rank_);
      tally.ss_scored += select_hard_negatives_block(
          *model_, sampler_, batch, strategy_.negatives_sampled,
          strategy_.negatives_used, rng, negatives_, negative_offsets_,
          hn_scratch_);
    }
    tally.ss_kept += negatives_.size();
    {
      const obs::TraceSpan span(tel_.trace, "forward_backward", rank_);
      forward_backward(*model_, batch, negatives_, negative_offsets_,
                       inv_examples, kCoeffUnderflow, local_, tally.loss_sum,
                       step_scratch_);
    }
    tally.loss_count += local_examples;

    // ---- strategy 2: gradient-row selection ----------------------------
    tally.rows_before += static_cast<double>(local_.entity.num_rows());
    if (plan.selection != SelectionMode::kNone) {
      const obs::TraceSpan span(tel_.trace, "grad_select", rank_);
      entity_selector_.apply(local_.entity, rng, plan.selection);
      if (!strategy_.relation_partition) {
        relation_selector_.apply(local_.relation, rng, plan.selection);
      }
    }
  }
  charge_compute(compute_seconds);

  // ---- strategies 1 & 3: synchronize gradients --------------------------
  ExchangePlan exchange_plan;
  exchange_plan.transport = plan.transport;
  exchange_plan.exchange_relations = !strategy_.relation_partition;
  const ExchangeResult xresult =
      exchange_.exchange(local_, merged_, exchange_plan, rng);
  tally.rows_sent += static_cast<double>(xresult.entity_rows_sent);
  tally.rows_merged += static_cast<double>(xresult.entity_rows_merged);
  tally.bytes += xresult.bytes_on_wire;

  // ---- optimizer step (measured compute) --------------------------------
  double update_seconds = 0.0;
  {
    ThreadCpuTimer timer(update_seconds);
    const obs::TraceSpan span(tel_.trace, "adam_update", rank_);
    entity_opt_.begin_step();
    relation_opt_.begin_step();
    entity_opt_.update_rows(merged_.entity, model_->entities());
    // Strategy 4: relation rows update from the local full-precision
    // gradient (this rank is their only writer), scaled to match the
    // merged-gradient averaging; otherwise from the merged cluster average
    // like entity rows.
    if (strategy_.relation_partition) {
      relation_opt_.update_rows_scaled(
          local_.relation, 1.0f / static_cast<float>(attempt_.num_nodes),
          model_->relations());
    } else {
      relation_opt_.update_rows(merged_.relation, model_->relations());
    }
  }
  charge_compute(update_seconds);

  if (m_steps_ != nullptr) {
    m_steps_->add(1);
    m_bytes_->add(xresult.bytes_on_wire);
    m_rows_sent_->add(xresult.entity_rows_sent);
    m_step_seconds_->record(compute_seconds + update_seconds);
  }
}

/// Validation accuracy after `epoch`, identical on every rank. Without
/// relation partition every replica is complete, so rank 0 validates and
/// the result is shared. Under relation partition a rank only holds fresh
/// relation rows for the relations it owns, so validation is
/// *distributed*: each rank scores the validation triples of its own
/// relations and the accuracies are combined as a pair-weighted average.
double RankProgram::validate(int epoch) {
  const obs::TraceSpan span(tel_.trace, "validation", rank_);
  const std::uint64_t seed = util::derive_seed(config_.seed, epoch, 0xACCu);
  if (!strategy_.relation_partition) {
    double val_accuracy = 0.0;
    if (rank_ == 0) {
      double val_seconds = 0.0;
      {
        ThreadCpuTimer timer(val_seconds);
        val_accuracy = evaluator_.validation_accuracy(
            *model_, seed, config_.valid_max_triples);
      }
      charge_compute(val_seconds);
    }
    return comm_.allreduce_scalar(val_accuracy, ScalarOp::kMax);
  }

  double val_seconds = 0.0;
  double weighted = 0.0, pairs = 0.0;
  {
    ThreadCpuTimer timer(val_seconds);
    const auto valid = attempt_.dataset.valid();
    const std::size_t limit =
        config_.valid_max_triples == 0
            ? valid.size()
            : std::min(valid.size(), config_.valid_max_triples);
    const auto [lo, hi] = attempt_.relation_partition.relation_range[rank_];
    TripleList mine;
    for (std::size_t i = 0; i < limit; ++i) {
      if (valid[i].relation >= lo && valid[i].relation < hi) {
        mine.push_back(valid[i]);
      }
    }
    const auto [accuracy, count] =
        evaluator_.validation_accuracy_subset(*model_, mine, seed);
    weighted = accuracy * static_cast<double>(count);
    pairs = static_cast<double>(count);
  }
  charge_compute(val_seconds);
  const double weighted_sum = comm_.allreduce_scalar(weighted, ScalarOp::kSum);
  const double pair_sum = comm_.allreduce_scalar(pairs, ScalarOp::kSum);
  return pair_sum > 0.0 ? weighted_sum / pair_sum : 0.0;
}

/// Epoch accounting (cluster maxima), the DRS and plateau decisions, the
/// per-(epoch, rank) event, metrics, and rank 0's EpochRecord.
void RankProgram::close_epoch(const EpochPlan& plan, const EpochTally& tally,
                              double val_accuracy) {
  const double epoch_comm = comm_.allreduce_scalar(
      comm_.stats().total_modeled_seconds() - plan.comm_start,
      ScalarOp::kMax);
  const double epoch_sim = comm_.allreduce_scalar(
      comm_.sim_now() - plan.sim_start, ScalarOp::kMax);
  const double cluster_loss =
      comm_.allreduce_scalar(tally.loss_sum, ScalarOp::kSum) /
      std::max(1.0, comm_.allreduce_scalar(
                        static_cast<double>(tally.loss_count), ScalarOp::kSum));

  // The all-reduce baseline the selector will compare a probe against —
  // captured before record_epoch overwrites it, and logged so the offline
  // strategy audit (obs/analysis) can re-derive the decision without
  // replaying the selector. -1 until the first all-reduce epoch is
  // recorded.
  const double probe_baseline = selector_.state().last_allreduce_time;
  selector_.record_epoch(plan.epoch, epoch_comm);
  scheduler_.observe(val_accuracy);

  // One structured event per (epoch, rank), emitted after record_epoch so
  // `switched_to_allgather` reflects the decision this epoch's probe
  // produced. Loss/accuracy/times are the allreduced cluster values,
  // identical on every rank.
  if (tel_.events != nullptr) {
    util::JsonWriter json;
    json.begin_object()
        .kv("epoch", plan.epoch)
        .kv("rank", rank_)
        .kv("comm_mode", to_string(strategy_.comm))
        .kv("transport", to_string(plan.transport))
        .kv("probe", plan.probe)
        .kv("probe_baseline_seconds", probe_baseline)
        .kv("switched_to_allgather", selector_.switched_to_allgather())
        .kv("selection", to_string(plan.selection))
        .kv("keep_rate", tally.rows_before > 0.0
                             ? tally.rows_sent / tally.rows_before
                             : 1.0)
        .kv("quant", to_string(strategy_.quant))
        .kv("bytes_on_wire", tally.bytes)
        .kv("ss_candidates_scored", tally.ss_scored)
        .kv("ss_candidates_kept", tally.ss_kept)
        .kv("loss", cluster_loss)
        .kv("lr", plan.lr)
        .kv("val_accuracy", val_accuracy)
        .kv("sim_seconds", epoch_sim)
        .kv("comm_seconds", epoch_comm)
        .end_object();
    tel_.events->write_line(json.str());
  }
  if (m_ss_scored_ != nullptr) {
    m_ss_scored_->add(tally.ss_scored);
    m_ss_kept_->add(tally.ss_kept);
  }
  if (rank_ != 0) return;
  if (tel_.metrics != nullptr) {
    tel_.metrics->counter("train.epochs").add(1);
    tel_.metrics->gauge("train.loss").set(cluster_loss);
    tel_.metrics->gauge("train.val_accuracy").set(val_accuracy);
    tel_.metrics->gauge("train.lr").set(plan.lr);
    tel_.metrics->histogram("train.epoch_sim_seconds").record(epoch_sim);
    tel_.metrics->histogram("train.epoch_comm_seconds").record(epoch_comm);
  }

  const auto steps = static_cast<double>(attempt_.steps_per_epoch);
  EpochRecord record;
  record.epoch = plan.epoch;
  record.used_allgather = plan.transport == Transport::kAllGather;
  record.sim_seconds = epoch_sim;
  record.comm_seconds = epoch_comm;
  record.val_accuracy = val_accuracy;
  record.mean_loss = cluster_loss;
  record.lr = plan.lr;
  record.nonzero_entity_rows = tally.rows_merged / steps;
  record.rows_before_selection = tally.rows_before / steps;
  record.rows_sent = tally.rows_sent / steps;
  TrainReport& report = attempt_.report;
  report.epoch_log.push_back(record);
  report.total_sim_seconds += epoch_sim;
  report.epochs = plan.epoch + 1;
  report.final_val_accuracy = val_accuracy;
  DYNKGE_LOG_DEBUG("epoch " << plan.epoch << " val=" << val_accuracy
                            << " loss=" << cluster_loss << " lr=" << plan.lr);
}

// ---- checkpoint writer ---------------------------------------------------

/// Snapshot after `epoch` when one is due: every N epochs, at convergence
/// and at the cap on disk; after every epoch in memory for elastic mode.
/// All collectives here are charge-free and the clocks are already aligned
/// by the epoch-accounting allreduces, so writing (or not writing)
/// snapshots leaves the simulated timeline — and hence the DRS decisions
/// and final embeddings — bit-identical. The sealed bytes of the in-memory
/// snapshot go to the host-side live buffer (rank 0 is the sole writer,
/// and the cohort join orders that write before the supervisor reads it).
void RankProgram::checkpoint(int epoch) {
  const TrainConfig::CheckpointConfig& ckpt = config_.checkpoint;
  const bool live_due = attempt_.live_snapshot != nullptr;
  const bool disk_due =
      !ckpt.dir.empty() &&
      ((epoch + 1) % ckpt.every == 0 || epoch + 1 == config_.max_epochs ||
       scheduler_.should_stop());
  if (!disk_due && !live_due) return;
  const obs::TraceSpan span(tel_.trace, "checkpoint.write", rank_);

  if (disk_due) ++checkpoints_total_;
  std::optional<kge::TrainingSnapshot> snap;
  if (rank_ == 0) snap = build_snapshot(epoch);
  gather_snapshot_parts(snap ? &*snap : nullptr);
  if (rank_ == 0) {
    const std::string sealed = kge::serialize_snapshot(*snap);
    snap.reset();  // only the sealed bytes are kept
    if (live_due) *attempt_.live_snapshot = sealed;
    if (disk_due) write_to_disk(epoch, sealed);
  }
  if (live_due) {
    // Publication barrier: without it a sibling could crash in epoch e+1
    // and abort rank 0 while it is still sealing epoch e's snapshot,
    // making the state recovery rolls back to depend on host thread
    // timing. Charge-free, so the simulated timeline is untouched; only the
    // collective count differs from a non-elastic run (relevant solely to
    // index-addressed fault specs — epoch addressing is unaffected).
    const std::byte token{0};
    comm_.allgatherv_slots(std::span<const std::byte>(&token, 1),
                           [](Communicator::Slots) {},
                           /*charge_cost=*/false);
  }
}

/// Rank 0: write the sealed snapshot under the degradation policy
/// (--checkpoint-on-error). "fail" rethrows, "retry" gets
/// fault_retry_limit attempts with a fresh temp file each time, and "skip"
/// (or retry exhaustion) logs the error, keeps the previous snapshot as
/// the resume point, and lets training continue. The write is host-side
/// and charge-free either way, so the simulated timeline — and the final
/// embeddings — are untouched by a failing disk.
void RankProgram::write_to_disk(int epoch, const std::string& sealed) {
  const TrainConfig::CheckpointConfig& ckpt = config_.checkpoint;
  kge::SnapshotWriteOptions write_options;
  if (epoch == ckpt.test_kill_at_epoch) {
    write_options.test_kill_after_bytes = ckpt.test_kill_mid_write;
  }
  const int max_attempts =
      ckpt.on_error == "retry" ? config_.fault_retry_limit : 1;
  bool written = false;
  std::string write_error;
  for (int attempt = 0; attempt < max_attempts && !written; ++attempt) {
    write_options.test_write_errno =
        (disk_faults_left_ > 0 && ckpt.test_disk_fault_at_epoch >= 0 &&
         epoch >= ckpt.test_disk_fault_at_epoch)
            ? ENOSPC
            : 0;
    if (write_options.test_write_errno != 0) --disk_faults_left_;
    try {
      kge::write_snapshot_bytes(sealed, ckpt.dir + "/snapshot.dkgs",
                                write_options);
      written = true;
    } catch (const std::exception& error) {
      write_error = error.what();
      if (ckpt.on_error == "fail") throw;
    }
  }
  if (!written) {
    // Degraded: the run keeps training; the previous snapshot stays the
    // resume point.
    checkpoints_total_ -= 1;
    DYNKGE_LOG_INFO("checkpoint write failed at epoch "
                    << epoch << " (" << ckpt.on_error
                    << "): " << write_error);
    if (tel_.metrics != nullptr) {
      tel_.metrics->counter("train.checkpoint_write_failures").add(1);
    }
    if (tel_.events != nullptr) {
      util::JsonWriter json;
      json.begin_object()
          .kv("event", "checkpoint_error")
          .kv("epoch", epoch)
          .kv("policy", ckpt.on_error)
          .kv("error", write_error)
          .end_object();
      tel_.events->write_line(json.str());
    }
    return;
  }
  attempt_.report.checkpoints_written += 1;
  if (tel_.metrics != nullptr) {
    tel_.metrics->counter("train.checkpoints_written").add(1);
  }
  if (ckpt.keep > 1) {
    // History copy of the same sealed bytes, then prune the oldest copies
    // beyond the budget — never the last good.
    const std::string history_file =
        ckpt.dir + "/snapshot-e" + std::to_string(epoch) + ".dkgs";
    kge::write_snapshot_bytes(sealed, history_file);
    last_good_history_ = history_file;
    kge::prune_snapshots(ckpt.dir, ckpt.keep, last_good_history_);
  }
  if (epoch == ckpt.test_kill_at_epoch) {
    // Harness hook: die *after* the snapshot is durable (the mid-write
    // variant never reaches this point).
    ::raise(SIGKILL);
  }
}

// ---- end of training -----------------------------------------------------

/// Verify replica consistency, reduce the compute slots, reassemble
/// relation rows under relation partition, and (rank 0) fill the report.
void RankProgram::finish() {
  TrainReport& report = attempt_.report;
  // Under relation partition each rank's relation rows are fresh only for
  // the relations it owns, so only the entity rows must agree.
  const bool consistent = replicas_consistent(
      comm_, *model_, /*with_relations=*/!strategy_.relation_partition);
  if (rank_ == 0) report.replicas_consistent = consistent;

  // Per-rank compute slots, reduced in fixed rank order.
  const double cluster_compute =
      comm_.allreduce_scalar(compute_seconds_, ScalarOp::kSum);
  if (rank_ == 0) report.compute_cpu_seconds = cluster_compute;

  if (strategy_.relation_partition) {
    // Every owner's rows land in place on every rank. `mine` is a copy,
    // so no rank overwrites rows a sibling is still reading.
    const auto& ranges = attempt_.relation_partition.relation_range;
    const std::vector<float> mine = pack_rows(
        {&model_->relations()}, ranges[rank_].first, ranges[rank_].second);
    comm_.allgatherv_slots(
        std::as_bytes(std::span<const float>(mine)),
        [&](Communicator::Slots slots) {
          for (std::size_t r = 0; r < slots.size(); ++r) {
            unpack_rows(slots[r], {&model_->relations()}, ranges[r].first,
                        ranges[r].second);
          }
        });
  }

  if (rank_ != 0) return;
  report.allreduce_fraction = selector_.allreduce_fraction();
  report.comm_stats = comm_.stats();
  report.model = std::move(model_);
}

}  // namespace
}  // namespace dynkge::core
