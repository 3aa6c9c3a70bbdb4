// Checkpointing: versioned binary formats with integrity checksums.
//
// Two file kinds share one codec layer:
//
//  * Model file ("DKGE", format version 1) — just the trained embeddings,
//    written by save_model / read by load_model. What serving and `dynkge
//    eval/predict` consume.
//
//  * Training snapshot ("DKGS", format version 3) — the full state needed
//    to resume training bit-identically: model parameters, Adam moments
//    and step counts, epoch counter, LR-scheduler state, CommModeSelector
//    (DRS) state, per-rank RNG stream seeds, and per-rank residual blobs
//    (gradient-selection and error-feedback residuals). Laid out as tagged
//    sections so corruption is reported by section name.
//
// Model file layout (little-endian):
//   magic   "DKGE"            4 bytes
//   version u32               currently 1
//   model   u32 name length + bytes
//           ("complex" | "distmult" | "transe" | "rotate")
//   rank    i32               model rank (complex components)
//   gamma   f32               TransE/RotatE margin (0 for other models)
//   shape   i32 x4            num_entities, entity_width,
//                             num_relations, relation_width
//   data    f32[...]          entity matrix then relation matrix, row-major
//   hash    u64               FNV-1a over everything above
//
// Snapshot layout (little-endian):
//   magic   "DKGS"            4 bytes
//   version u32               currently 3
//   8 sections, each: tag (4 bytes) + u64 payload length + payload,
//   in fixed order MODL OPTE OPTR TRNR SCHD SELC RNGS RESD
//   hash    u64               FNV-1a over everything above
// (see DESIGN.md for the per-section field tables)
//
// Both writers are crash-consistent: the bytes are staged to a temp file in
// the destination directory, fsynced, and atomically renamed over the
// target, so a process killed at any byte boundary leaves either the old
// file or the new one — never a torn mix.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "kge/embedding.hpp"
#include "kge/model.hpp"

namespace dynkge::kge {

/// Write `model` to `path` (atomically). Throws std::runtime_error on I/O
/// failure.
void save_model(const KgeModel& model, const std::string& path);

/// Read a model back. Throws std::runtime_error on missing file, magic,
/// version or checksum mismatch, truncation, or an unknown model name;
/// every message names the file, the failing section, and (for version
/// mismatches) the expected vs. found version.
std::unique_ptr<KgeModel> load_model(const std::string& path);

// ---------------------------------------------------------------------
// Training snapshots.

/// One RowAdam's persistent state: global step count + moment matrices.
struct OptimizerSnapshot {
  std::int64_t step = 0;
  EmbeddingMatrix m;  ///< first-moment estimates
  EmbeddingMatrix v;  ///< second-moment estimates
};

/// PlateauScheduler state (core/lr_scheduler.hpp).
struct SchedulerSnapshot {
  double lr = 0.0;
  double best_metric = -1e300;
  std::int32_t stale_epochs = 0;
  bool stopped = false;
};

/// CommModeSelector (DRS) state (core/comm_selector.hpp). The last three
/// fields track the Top-K third arm (format version 3); they sit at their
/// defaults for two-arm runs.
struct CommSelectorSnapshot {
  bool switched = false;
  double last_allreduce_time = -1.0;
  std::int32_t epochs_recorded = 0;
  std::int32_t allreduce_epochs = 0;
  std::int32_t committed_arm = 1;
  double base_probe_time = -1.0;
  double topk_probe_time = -1.0;
};

/// Run identity + progress. The identity fields are validated on resume so
/// a snapshot cannot silently continue a different experiment.
struct TrainerSnapshot {
  std::int32_t next_epoch = 0;   ///< first epoch the resumed run executes
  std::int32_t num_nodes = 1;
  std::uint64_t seed = 0;
  std::string model_name;
  std::int32_t embedding_rank = 0;
  std::string strategy;  ///< StrategyConfig::spec() of the run: every field
  double total_sim_seconds = 0.0;
  double final_val_accuracy = 0.0;
  std::int32_t checkpoints_written = 0;  ///< snapshots this run has written
};

/// Everything `dynkge train --resume` needs for a bit-identical
/// continuation. `rank_residuals[r]` is an opaque blob owned by the
/// trainer (rank r's gradient-selection + error-feedback residual stores);
/// `rank_rng_seeds[r]` is the derived seed of rank r's next-epoch RNG
/// stream, stored so resume can verify the stream derivation contract.
struct TrainingSnapshot {
  std::unique_ptr<KgeModel> model;
  OptimizerSnapshot entity_opt;
  OptimizerSnapshot relation_opt;
  TrainerSnapshot trainer;
  SchedulerSnapshot scheduler;
  CommSelectorSnapshot comm_selector;
  std::vector<std::uint64_t> rank_rng_seeds;
  std::vector<std::string> rank_residuals;
};

struct SnapshotWriteOptions {
  /// Test hook for the crash-consistency harness: raise SIGKILL after this
  /// many bytes of the temp file have been written and flushed (the rename
  /// never happens, so the previous snapshot must survive intact).
  /// Negative = disabled.
  std::int64_t test_kill_after_bytes = -1;
  /// Disk-fault hook for the degradation harness: fail the first write(2)
  /// of the temp file with this errno (ENOSPC, EIO, ...). 0 = disabled.
  /// The torn temp file is unlinked before the error is thrown, so the
  /// previous snapshot is never shadowed by a half-written one.
  int test_write_errno = 0;
};

/// Global write-syscall interposition hook for disk-fault unit tests: when
/// set, every write(2) issued by the atomic snapshot/model writer goes
/// through it instead. Semantics match write(2): return the byte count
/// written (short counts are honored and retried, like a nearly-full
/// disk), or -1 with errno set to fail the write. `path` is the temp file
/// being written, so a hook can target specific files. Pass nullptr to
/// restore the real syscall. Not thread safe — set it only from
/// single-threaded test setup; rank 0 is the sole snapshot writer.
using WriteSyscallHook = ssize_t (*)(const std::string& path, int fd,
                                     const void* buf, std::size_t count);
void set_write_syscall_hook_for_testing(WriteSyscallHook hook);

/// Write a full training snapshot to `path`, atomically (temp + fsync +
/// rename). Throws std::runtime_error on I/O failure.
void save_snapshot(const TrainingSnapshot& snapshot, const std::string& path,
                   const SnapshotWriteOptions& options = {});

/// Read a training snapshot back. Fails loudly (std::runtime_error naming
/// the file, section, and expected vs. found version) on any corruption:
/// truncation, bit flips, bad magic, wrong version, or checksum mismatch.
TrainingSnapshot load_snapshot(const std::string& path);

/// Serialize a snapshot to the exact sealed DKGS byte stream save_snapshot
/// writes (magic + version + sections + checksum), without touching disk.
/// Elastic recovery keeps one of these per epoch in memory so a rank
/// failure can be recovered without a --checkpoint-dir.
std::string serialize_snapshot(const TrainingSnapshot& snapshot);

/// Parse a sealed DKGS byte stream (the inverse of serialize_snapshot,
/// and exactly what load_snapshot does after reading the file). `source`
/// names the origin in error messages — a file path or e.g. "elastic
/// recovery snapshot".
TrainingSnapshot deserialize_snapshot(std::string_view bytes,
                                      const std::string& source);

/// Atomically write already-sealed snapshot bytes (from
/// serialize_snapshot) to `path` — lets a caller serialize once and both
/// keep the buffer and persist it.
void write_snapshot_bytes(const std::string& sealed, const std::string& path,
                          const SnapshotWriteOptions& options = {});

// ---------------------------------------------------------------------
// Residual blobs (the RESD section payload, shared by the distributed and
// federated trainers).

/// Pack residual stores into one opaque blob: each store as a u32 row
/// count followed by (i32 id, u32 width, float values) entries in the
/// store's ascending id walk, so identical state always produces identical
/// bytes.
std::string encode_residual_maps(
    std::initializer_list<const SparseGrad*> stores);

/// Unpack a blob produced by encode_residual_maps into one store per entry
/// of `matrices`, at the matrix's width, each row checked against the
/// matrix's shape before it is read into the store. Throws
/// std::runtime_error naming the RESD section on truncation, trailing
/// bytes, an id not greater than the one before it (so a repeated id), an
/// id outside [0, rows) or a width other than the matrix's.
std::vector<SparseGrad> decode_residual_maps(
    const std::string& blob,
    std::initializer_list<const EmbeddingMatrix*> matrices);

}  // namespace dynkge::kge
