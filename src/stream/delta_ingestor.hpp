// DeltaIngestor — accepts streamed triples, batches them, runs the
// incremental refresh against the current snapshot, and publishes the
// result as a new version in the SnapshotStore.
//
// The ingest path is: submit() enqueues (bounded — deltas beyond
// `max_pending` are shed and counted, the ingest-side admission valve);
// flush() drains the pending batch, brings a copy of the current model up
// to date, refreshes only the touched entity rows (stream/refresh.hpp) in
// it and publishes it. Publishing defers to read traffic via the shared
// AdmissionController, so an update burst cannot starve the score path.
//
// The copy costs O(touched rows), not O(table), in steady state: every
// model the ingestor publishes carries a deleter that, once the store has
// displaced it and no reader pins it, hands it back instead of freeing
// it. When the handed-back model is the version the current one was
// refreshed from, and the current one is this ingestor's own publish,
// the two differ only in the rows that refresh touched: copying those
// rows makes the buffer current. Otherwise — the first flushes, a reader
// still pinning the displaced version, another publisher in between —
// flush() clones the current model whole (kge::clone_model) and counts a
// full copy.
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
#include <memory>
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
  std::uint64_t full_copies = 0;   ///< refreshes that cloned the whole model
  double last_drift = 0.0;
  double last_mean_loss = 0.0;
};

class DeltaIngestor {
 public:
  /// `store` must be initialized (init() called) and outlive the
  /// ingestor.
  DeltaIngestor(SnapshotStore& store, const IngestConfig& config);

  /// Models it published may outlive it in the store; they are freed,
  /// not handed back, once the ingestor is gone.
  ~DeltaIngestor();

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
  /// The handed-back model brought up to `current`, or null when it is not
  /// the version this ingestor's last publish was refreshed from (or that
  /// publish is no longer current). Caller holds flush_mu_.
  std::unique_ptr<kge::KgeModel> take_returned(const PinnedModel& current);
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

  /// Where published models come back (delta_ingestor.cpp). Each published
  /// model's deleter shares it, so a deleter that runs after the ingestor
  /// is gone is still safe.
  struct ReturnSlot;
  struct HandBack;
  std::shared_ptr<ReturnSlot> returned_;
  /// This ingestor's last publish (guarded by flush_mu_): its version, the
  /// version it was refreshed from, and the rows that refresh touched.
  std::uint64_t last_version_ = 0;
  std::uint64_t last_base_version_ = 0;
  std::vector<kge::EntityId> last_touched_;

  mutable std::mutex stats_mu_;
  IngestStats stats_;
};

}  // namespace dynkge::stream
