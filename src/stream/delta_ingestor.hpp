// DeltaIngestor — accepts streamed triples, batches them, runs the
// incremental refresh against the current snapshot, and publishes the
// result as a new version in the SnapshotStore.
//
// The ingest path is: submit() enqueues (bounded — deltas beyond
// `max_pending` are shed and counted, the ingest-side admission valve);
// flush() drains the pending batch, clones the current model
// (kge::clone_model), refreshes only the touched entity rows
// (stream/refresh.hpp) and publishes. Publishing defers to read traffic
// via the shared AdmissionController, so an update burst cannot starve
// the score path.
//
// Determinism: versions are produced in flush order, each refresh is
// seeded by (seed, version), and batches preserve submission order — so
// a fixed delta stream applied to version N yields byte-identical
// snapshot bytes on every replay (asserted by tests).
//
// Thread-safety: any number of producers may submit() concurrently;
// flush() may run concurrently with submits but flushes themselves are
// serialized (second caller waits).
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "kge/dataset.hpp"
#include "kge/triple.hpp"
#include "obs/telemetry.hpp"
#include "stream/admission.hpp"
#include "stream/refresh.hpp"
#include "stream/snapshot_store.hpp"

namespace dynkge::stream {

struct IngestConfig {
  std::size_t batch_size = 256;   ///< auto-flush threshold for submit()
  std::size_t max_pending = 65536;  ///< pending bound; beyond = shed
  RefreshParams refresh;
  /// Optional shared admission controller: publishes defer while reads
  /// are saturated. Must outlive the ingestor.
  AdmissionController* admission = nullptr;
  /// Optional known-triple source for filtered / hard-negative sampling
  /// during refresh. Must outlive the ingestor.
  const kge::Dataset* dataset = nullptr;
  /// Optional stream.* metrics, stream.refresh trace spans and per-batch
  /// "delta_batch" JSONL events.
  obs::TelemetrySinks telemetry;
};

struct IngestStats {
  std::uint64_t submitted = 0;   ///< deltas accepted into the queue
  std::uint64_t shed = 0;        ///< deltas rejected (queue full)
  std::uint64_t batches = 0;     ///< refreshes published
  std::uint64_t touched_rows = 0;  ///< entity rows updated, cumulative
  double last_drift = 0.0;
  double last_mean_loss = 0.0;
};

class DeltaIngestor {
 public:
  /// `store` must be initialized (init() called) and outlive the
  /// ingestor.
  DeltaIngestor(SnapshotStore& store, const IngestConfig& config);

  DeltaIngestor(const DeltaIngestor&) = delete;
  DeltaIngestor& operator=(const DeltaIngestor&) = delete;

  /// Queue one delta. Returns false (and counts a shed) when the pending
  /// queue is full. When the pending batch reaches batch_size it is
  /// flushed inline on the calling thread. Throws std::out_of_range,
  /// queuing nothing, when an id lies outside the model's universe.
  bool submit(const kge::Triple& delta);

  /// Queue many deltas; returns how many were accepted. Every delta is
  /// checked against the universe first, so a batch holding an
  /// out-of-universe delta throws std::out_of_range and queues nothing.
  std::size_t submit_batch(std::span<const kge::Triple> deltas);

  /// Refresh + publish everything pending. Returns the new version, or 0
  /// if nothing was pending. Safe to call concurrently with submits.
  std::uint64_t flush();

  std::size_t pending() const;
  IngestStats stats() const;

 private:
  /// submit() past the universe check.
  bool enqueue(const kge::Triple& delta);
  std::uint64_t flush_batch(std::vector<kge::Triple>&& batch);
  /// Throws std::out_of_range naming `delta` and the universe when one of
  /// its ids has no row in the model.
  void check_universe(const kge::Triple& delta) const;

  SnapshotStore& store_;
  IngestConfig config_;
  /// The store's entity/relation universe (publish() keeps it fixed).
  std::int32_t num_entities_ = 0;
  std::int32_t num_relations_ = 0;

  mutable std::mutex pending_mu_;
  std::vector<kge::Triple> pending_;

  std::mutex flush_mu_;  ///< serializes refresh+publish

  mutable std::mutex stats_mu_;
  IngestStats stats_;
};

}  // namespace dynkge::stream
