// DistributedTrainer — the paper's full training pipeline.
//
// One call to train() runs synchronous data-parallel KGE training on the
// simulated cluster: the training triples are partitioned over P ranks
// (uniformly, or by relation when strategy 4 is active), each rank holds a
// full model replica, and every optimizer step merges the ranks' sparse
// gradients through the configured strategy stack:
//
//   batch -> (5) hard negative selection -> gradients
//         -> (2) gradient-row selection  -> (3) quantization
//         -> (1) all-reduce / all-gather / dynamic transport
//         -> (4) relation rows skipped under relation partition
//         -> sparse Adam on every replica
//
// Hard negatives, gradients and Adam run on the blocked kernels: the
// gradients come from core::forward_backward (core/train_step.hpp), the
// same step the stream refresh takes. Each rank's program is a sequence
// of named stages in trainer.cpp (restore, step, close epoch, checkpoint,
// finish) around one per-rank state.
//
// Convergence is decided by the paper's plateau LR schedule on validation
// accuracy, which yields the per-method epoch counts N; epoch durations
// come from the simulated clock (measured per-thread compute + modeled
// communication), which yields the training times TT. See DESIGN.md.
//
// Host execution model: the P rank programs run concurrently, co-scheduled
// on a host thread pool (util::ThreadPool, shared with the serving layer's
// pool implementation; sized by TrainConfig::host_threads, with transient
// overflow threads when P exceeds the pool). Wall time therefore scales
// with min(P, host cores), while the reported sim_seconds/comm_seconds
// stay the paper-faithful simulated Cray numbers. Results are
// bit-identical for every host_threads value: all floating-point
// reductions consume per-rank contributions in fixed rank order, and
// per-rank RNGs are derived from (seed, rank, epoch) alone.
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

namespace dynkge::kge {
struct TrainingSnapshot;  // kge/serialize.hpp
}  // namespace dynkge::kge

namespace dynkge::core {

struct TrainConfig {
  std::string model_name = "complex";  ///< complex | distmult | transe
  std::int32_t embedding_rank = 32;    ///< complex components per embedding

  int num_nodes = 1;
  std::size_t batch_size = 1000;  ///< positives per rank per step

  /// Host threads the simulated cluster's rank programs, and then the
  /// final ranking, run on. 0 means hardware concurrency. Purely a
  /// wall-time knob: results are bit-identical for every value
  /// (rank-ordered reductions, per-rank RNGs, per-query rank slots), and
  /// sim_seconds/comm_seconds are unaffected. When
  /// host_threads < num_nodes the pool co-schedules the excess ranks on
  /// transient overflow threads (barrier programs need all P ranks live).
  int host_threads = 0;

  PlateauConfig lr;            ///< plateau schedule (paper defaults inside)
  double weight_decay = 1e-6;  ///< 2*lambda of the L2 penalty
  int max_epochs = 200;        ///< hard cap on top of the plateau stop

  StrategyConfig strategy;

  std::uint64_t seed = 1234;

  /// Periodic full-state snapshots + resume (see kge/serialize.hpp and the
  /// "Fault tolerance" section of the README). A killed run restarted with
  /// `resume = true` continues from the last complete snapshot and produces
  /// final embeddings byte-identical to an uninterrupted run.
  struct CheckpointConfig {
    std::string dir;  ///< empty = checkpointing off
    int every = 1;    ///< write a snapshot every N epochs (and at the end)
    /// Scan `dir` for the newest valid snapshot before training and
    /// continue from its epoch. A corrupt newest snapshot falls back to
    /// the next-older valid one (see kge/checkpoint_dir.hpp); only when
    /// every candidate is damaged does resume fail. If the directory holds
    /// no snapshot the run starts from scratch (the crash may have
    /// predated the first checkpoint).
    bool resume = false;

    /// What a failed snapshot write does to the run (--checkpoint-on-error):
    ///   "fail"  — rethrow; a full disk kills training (default).
    ///   "skip"  — log, bump train.checkpoint_write_failures, keep
    ///             training; the previous snapshot stays the resume point.
    ///   "retry" — try the write again (fresh temp file) up to the fault
    ///             budget, then degrade to skip.
    std::string on_error = "fail";

    /// Total snapshots retained (--checkpoint-keep): the primary
    /// snapshot.dkgs plus keep-1 epoch-stamped history copies
    /// (snapshot-e<epoch>.dkgs) of the same sealed bytes. 1 = primary
    /// only (no history). Retention never deletes the last snapshot that
    /// verified good.
    int keep = 1;

    /// Test hooks for the kill/restart harness. `test_kill_at_epoch`
    /// raises SIGKILL right after that epoch's snapshot write;
    /// `test_kill_mid_write` additionally dies after that many bytes of
    /// the snapshot temp file instead (proving the atomic-rename
    /// guarantee). Negative = disabled.
    int test_kill_at_epoch = -1;
    std::int64_t test_kill_mid_write = -1;

    /// Disk-fault hooks for the degradation harness: starting at epoch
    /// `test_disk_fault_at_epoch`, the next `test_disk_fault_attempts`
    /// snapshot writes fail with ENOSPC (exercising `on_error`). -1 =
    /// disabled.
    int test_disk_fault_at_epoch = -1;
    int test_disk_fault_attempts = 1;
  };
  CheckpointConfig checkpoint;

  /// Optional fault injection (non-owning): forwarded to the simulated
  /// cluster so every collective consults it. See comm/fault.hpp. An
  /// injected rank crash surfaces as comm::RankFailedError from train()
  /// unless elastic recovery (below) absorbs it.
  comm::FaultInjector* fault_injector = nullptr;

  /// Snapshot write attempts under checkpoint.on_error == "retry"
  /// (--fault-retry-limit, the same budget the CLI gives the injector's
  /// RetryPolicy). The injector's own knobs, retry backoff and the
  /// collective deadline, live on the FaultInjector, which validates them.
  int fault_retry_limit = 4;

  /// Elastic training: survive permanent rank crashes by shrinking the
  /// world to the survivors and replaying the poisoned epoch from the last
  /// in-run snapshot (kept in memory; no checkpoint dir required). See
  /// comm/recovery.hpp and DESIGN.md section 8.
  struct ElasticConfig : comm::ElasticPolicy {
    /// Test hook for the kill/restart harness: raise SIGKILL in the middle
    /// of the N-th recovery rebuild (1-based). <= 0 = disabled.
    int test_kill_in_recovery = -1;
  };
  ElasticConfig elastic;

  /// Optional warm start: every replica copies this model's parameters
  /// instead of random-initializing (shapes must match the dataset and
  /// model_name/rank). Enables incremental retraining from a checkpoint.
  std::shared_ptr<const kge::KgeModel> warm_start;

  std::size_t valid_max_triples = 500;  ///< per-epoch validation subsample
  std::size_t eval_max_triples = 250;   ///< final MRR ranking subsample
  bool compute_final_metrics = true;    ///< TCA + MRR after training

  /// Observability sinks (src/obs/): metrics registry, Chrome trace-event
  /// writer, per-epoch JSONL event stream. All non-owning and default-off;
  /// null members cost a few pointer checks per step. Telemetry only reads
  /// training state — results are bit-identical with any sink enabled.
  obs::TelemetrySinks telemetry;

  comm::CostModelParams network = comm::CostModelParams::aries();
};

/// One epoch's worth of telemetry (rank-0 view; cluster maxima for times).
struct EpochRecord {
  int epoch = 0;
  bool used_allgather = false;
  double sim_seconds = 0.0;   ///< simulated epoch duration
  double comm_seconds = 0.0;  ///< modeled communication part
  double val_accuracy = 0.0;  ///< validation TCA in percent
  double mean_loss = 0.0;     ///< cluster-mean training loss
  double lr = 0.0;
  /// Mean unique non-zero entity gradient rows per step after the merge
  /// (figure 2's series).
  double nonzero_entity_rows = 0.0;
  /// Mean rows this rank communicated per step, before/after selection.
  double rows_before_selection = 0.0;
  double rows_sent = 0.0;
};

struct TrainReport {
  std::string strategy_label;  ///< StrategyConfig::label(), the display name
  std::string strategy_spec;   ///< StrategyConfig::spec(), every field
  std::string model_name;
  int num_nodes = 1;

  int epochs = 0;                  ///< the paper's N (includes pre-resume)
  bool converged = false;          ///< plateau stop (vs max_epochs cap)
  int start_epoch = 0;             ///< first epoch this run executed
                                   ///< (non-zero after --resume)
  int checkpoints_written = 0;     ///< snapshots written by this run
  double total_sim_seconds = 0.0;  ///< the paper's TT (simulated)
  double mean_epoch_seconds() const {
    return epochs == 0 ? 0.0 : total_sim_seconds / epochs;
  }

  double final_val_accuracy = 0.0;
  double tca = 0.0;                ///< the paper's TCA (percent)
  kge::RankingMetrics ranking;     ///< .mrr is the paper's MRR

  /// Host threads the rank programs ran on (the pool's worker count).
  int host_threads = 1;
  /// Sum over ranks of measured thread-CPU compute seconds (deterministic
  /// rank-ordered reduction of the per-rank slots; the value itself is a
  /// timing measurement and varies run to run, like wall_seconds).
  double compute_cpu_seconds = 0.0;
  /// Effective host parallelism: how many seconds of rank compute were
  /// retired per wall second. ~min(P, cores) when the host overlaps the
  /// ranks; ~1 when they serialize. This is the wall-time speedup over
  /// executing the measured compute sequentially.
  double host_speedup() const {
    return wall_seconds > 0.0 ? compute_cpu_seconds / wall_seconds : 0.0;
  }

  std::vector<EpochRecord> epoch_log;
  comm::CommStats comm_stats;      ///< rank 0 totals
  /// Share of recorded epochs run with all-reduce. 0.0 when no epochs ran
  /// — the same empty-history convention as
  /// CommModeSelector::allreduce_fraction().
  double allreduce_fraction = 0.0;
  double wall_seconds = 0.0;       ///< host wall time (diagnostic only)

  /// Elastic recovery accounting (see TrainConfig::elastic): ranks lost,
  /// successful shrink-world recoveries, and host wall seconds spent in
  /// recovery rebuilds. All zero for a fault-free or fail-fast run.
  int rank_failures = 0;
  int recoveries = 0;
  double recovery_seconds = 0.0;

  /// Verified at the end of training: every rank holds bit-identical
  /// entity embeddings (and, without relation partition, relation
  /// embeddings). Synchronous data-parallel training guarantees this; a
  /// false value indicates a gradient-exchange bug.
  bool replicas_consistent = false;

  /// Rank 0's trained replica (relation rows reassembled when relation
  /// partition was active). Use it for downstream inference: scoring,
  /// link-prediction queries, further evaluation.
  std::shared_ptr<kge::KgeModel> model;
};

class DistributedTrainer {
 public:
  DistributedTrainer(const kge::Dataset& dataset, TrainConfig config);

  /// Run the full training job on a fresh simulated cluster. With
  /// TrainConfig::elastic enabled this is a supervision loop: a permanent
  /// rank failure shrinks the world to the survivors, restores state from
  /// the last in-run snapshot, and replays the poisoned epoch — the
  /// post-recovery run is byte-identical to a fresh run at the smaller
  /// world size resumed from the same snapshot. Failures beyond the
  /// elastic budget rethrow comm::RankFailedError.
  TrainReport train();

  const TrainConfig& config() const { return config_; }

 private:
  /// One cluster attempt at `world_size` ranks. `resume` (may be null)
  /// is the snapshot state to continue from; `live_snapshot` (may be
  /// null) receives the sealed DKGS bytes of the newest per-epoch
  /// snapshot, kept for elastic recovery.
  TrainReport run_attempt(int world_size, const kge::TrainingSnapshot* resume,
                          util::ThreadPool& pool,
                          std::string* live_snapshot);

  /// Validate that a loaded snapshot belongs to this run (model, strategy,
  /// seed, shapes, RNG derivation). `world_size` is the world it will be
  /// resumed at — a larger snapshot world is accepted only in elastic mode
  /// (shrink-resume).
  void validate_resume_snapshot(const kge::TrainingSnapshot& snapshot,
                                int world_size) const;

  const kge::Dataset& dataset_;
  TrainConfig config_;
};

}  // namespace dynkge::core
