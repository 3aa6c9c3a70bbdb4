// Incremental embedding refresh: absorb a batch of streamed triples by
// updating only the entity rows those triples touch, against an otherwise
// frozen base model.
//
// Rationale (Procrustes line of work, PAPERS.md): embeddings trained
// incrementally on new facts stay compatible with a frozen base as long
// as the update is small and the shared coordinate frame is preserved.
// We keep the frame fixed by construction — relation rows and all
// untouched entity rows are never written, so the refreshed model lives
// in exactly the base model's space and cached/ranked results for
// untouched entities remain comparable across versions. The refresher
// reports the row drift it introduced so callers can alarm on frame-
// breaking updates instead of silently publishing them.
//
// Each optimization pass is the distributed trainer's step: negatives for
// the whole batch (core::select_hard_negatives_block, or uniform
// corruptions), one core::forward_backward with unit coefficient scale and
// no underflow cut, then RowAdam::update_rows over the touched rows.
//
// Determinism: given the same base model bytes, the same delta batch in
// the same order, the same params and the same (seed, version) pair, the
// refreshed model is byte-identical — the RNG stream is derived from
// (seed, version), triples are visited in batch order, and touched rows
// are updated in sorted-id order (the same contract the distributed
// trainer keeps). Golden digests in test_stream_refresh pin the bytes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "kge/dataset.hpp"
#include "kge/model.hpp"
#include "kge/triple.hpp"

namespace dynkge::stream {

struct RefreshParams {
  int steps = 2;                ///< optimization passes over the batch
  int negatives_sampled = 4;    ///< uniform corruptions drawn per positive
  int negatives_used = 4;       ///< hardest kept (< sampled = hard mining)
  double learning_rate = 0.05;
  double weight_decay = 0.0;
  std::uint64_t seed = 1234;    ///< stream seed; mixed with the version
};

struct RefreshResult {
  std::vector<kge::EntityId> touched;  ///< sorted, unique entity rows updated
  double mean_loss = 0.0;              ///< logistic loss, final pass
  double drift = 0.0;                  ///< L2 norm of (new - base) touched rows
  std::size_t row_updates = 0;         ///< Adam row updates applied
};

/// Refresh `model` in place for `deltas`, updating only the entity rows
/// that appear in the batch (relations and all other entities stay
/// byte-identical). `version` is the snapshot version being produced —
/// it salts the RNG stream so every publish is independent yet
/// reproducible. `dataset` (optional) enables hard-negative mining
/// (core::select_hard_negatives_block) when negatives_used <
/// negatives_sampled; without it, all sampled corruptions are used.
RefreshResult incremental_refresh(kge::KgeModel& model,
                                  std::span<const kge::Triple> deltas,
                                  std::uint64_t version,
                                  const RefreshParams& params,
                                  const kge::Dataset* dataset = nullptr);

}  // namespace dynkge::stream
