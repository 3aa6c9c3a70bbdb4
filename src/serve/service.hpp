// InferenceService — the serving front door.
//
// Owns a versioned snapshot store, a thread pool, a TopKScorer and a
// QueryCache, and answers top-k link-prediction queries:
//
//   * topk(query)        — single query: cache lookup, then a parallel
//                          blocked scan across the whole pool on a miss.
//   * topk_batch(batch)  — micro-batching: deduplicates identical queries
//                          inside the batch (skewed traffic makes this
//                          common), looks each distinct query up in the
//                          cache, scores all the misses in one pass over
//                          the entity table split across the pool (each
//                          candidate row is read once per tile of
//                          queries, not once per query), then fills every
//                          slot.
//
// Streaming updates. The model lives in a stream::SnapshotStore: every
// query (or batch) pins the current version, scores entirely against that
// immutable snapshot, and tags its cache entries with the version. The
// ONLY mutation routes are swap_model() (full swap) and a
// stream::DeltaIngestor publishing into store() (delta refresh) —
// both go through SnapshotStore::publish, so a swap can never race
// in-flight scoring: readers finish on the version they pinned. A publish
// observer registered here invalidates the cache (full clear for a swap,
// entity-keyed for a delta) and feeds the serve.cache.invalidations /
// serve.cache.invalidated_entries counters.
//
// Admission control: with ServiceConfig::max_inflight set, reads beyond
// the in-flight limit are shed immediately — topk() returns nullptr,
// topk_batch() nullptr slots — instead of queueing into a latency cliff,
// and a DeltaIngestor wired to admission() defers its publishes while
// reads sit at the limit.
//
// Every answered query is timed into a fixed-bucket log histogram;
// snapshot() returns latency percentiles, throughput, cache and shed
// counters plus the serving version. Thread-safe: any number of client
// threads may call topk()/topk_batch() concurrently with swaps/publishes.
//
// Telemetry: ServiceConfig::metrics moves the latency histogram into a
// shared obs::MetricsRegistry ("serve.latency_seconds", plus query/batch/
// shed/invalidation counters); ServiceConfig::trace records one
// "serve.batch" span per topk_batch call. Both are optional and
// default-off.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "kge/dataset.hpp"
#include "kge/model.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/query_cache.hpp"
#include "serve/scorer.hpp"
#include "stream/admission.hpp"
#include "stream/snapshot_store.hpp"

namespace dynkge::serve {

struct ServiceConfig {
  int num_threads = 4;             ///< worker pool size (>= 1)
  std::size_t cache_capacity = 4096;  ///< total cached results; 0 disables

  /// Reads allowed in flight at once; beyond this, queries are shed
  /// (topk returns nullptr) and delta publishes wait while reads sit at
  /// it (see stream::AdmissionController). 0 = unlimited, never shed.
  std::size_t max_inflight = 0;
  /// Cache entries older than this many publishes are treated as misses
  /// (bounds staleness from the entity-keyed invalidation gap; see
  /// QueryCache). 0 = unbounded.
  std::uint64_t cache_max_version_lag = 0;

  /// Optional shared metrics registry: latency is recorded into its
  /// "serve.latency_seconds" histogram (with serve.queries/serve.batches/
  /// serve.shed/serve.cache.invalidations counters) instead of a
  /// service-private histogram. Must outlive the service.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional trace writer: topk_batch emits "serve.batch" spans.
  obs::TraceWriter* trace = nullptr;
};

struct ServiceSnapshot {
  std::uint64_t queries = 0;       ///< total queries answered
  std::uint64_t shed = 0;          ///< queries rejected by admission
  std::uint64_t model_version = 0; ///< snapshot version currently served
  std::uint64_t publishes = 0;     ///< swaps + delta refreshes accepted
  double mean_latency_seconds = 0.0;
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  double p99_seconds = 0.0;
  CacheStats cache;

  std::string summary() const;
};

class InferenceService {
 public:
  /// Serve `model` as snapshot version 1; the service keeps it alive
  /// until a later publish supersedes it and no request pins it. A
  /// std::unique_ptr<kge::KgeModel> converts. `dataset` (optional)
  /// enables known-triple filtering and must outlive the service.
  InferenceService(std::shared_ptr<const kge::KgeModel> model,
                   const kge::Dataset* dataset,
                   const ServiceConfig& config = {});

  /// Load a checkpoint written by kge::save_model and serve it.
  static std::unique_ptr<InferenceService> from_checkpoint(
      const std::string& path, const kge::Dataset* dataset = nullptr,
      const ServiceConfig& config = {});

  /// Answer one query (cache, then parallel scan on a miss). The returned
  /// pointer is immutable and stays valid after eviction, invalidation or
  /// any number of swaps. Returns nullptr iff the query was shed by
  /// admission control. A query validate_query() refuses against the
  /// pinned version throws its exception before the cache is consulted.
  QueryCache::ResultPtr topk(const TopKQuery& query);

  /// Answer a batch; results[i] corresponds to queries[i]. Duplicate
  /// queries are scored once; the whole batch is answered from one pinned
  /// snapshot version. If admission sheds the batch, every slot is
  /// nullptr. Every query is validated before deduplication; one refused
  /// query throws for the whole batch.
  std::vector<QueryCache::ResultPtr> topk_batch(
      std::span<const TopKQuery> queries);

  /// Atomically replace the served model (zero-downtime: in-flight reads
  /// finish on the version they pinned). Clears the query cache via the
  /// publish observer. Returns the new version number.
  std::uint64_t swap_model(std::shared_ptr<const kge::KgeModel> model);

  /// Version currently being served.
  std::uint64_t current_version() const { return store_.current_version(); }

  /// The snapshot store — wire a stream::DeltaIngestor to it for
  /// incremental refreshes; its publishes flow through the same observer
  /// (entity-keyed invalidation) as swap_model().
  stream::SnapshotStore& store() { return store_; }
  const stream::SnapshotStore& store() const { return store_; }

  stream::AdmissionController& admission() { return admission_; }

  /// Latency / throughput / cache counters since construction (or the
  /// last reset_metrics()).
  ServiceSnapshot snapshot() const;
  void reset_metrics();

  int num_threads() const { return static_cast<int>(pool_.size()); }

 private:
  void on_publish(std::uint64_t version,
                  const std::vector<kge::EntityId>& touched);
  void record_latency(double seconds, std::size_t queries);

  stream::SnapshotStore store_;
  stream::AdmissionController admission_;
  util::ThreadPool pool_;
  TopKScorer scorer_;
  QueryCache cache_;
  obs::LatencyHistogram own_latency_;
  /// Points at own_latency_, or at the registry-owned histogram when
  /// ServiceConfig::metrics was given (the migrated serve histogram).
  obs::LatencyHistogram* latency_;
  obs::Counter* query_counter_ = nullptr;
  obs::Counter* batch_counter_ = nullptr;
  obs::Counter* shed_counter_ = nullptr;
  obs::Counter* invalidation_counter_ = nullptr;
  obs::Counter* invalidated_entries_counter_ = nullptr;
  obs::TraceWriter* trace_ = nullptr;
};

}  // namespace dynkge::serve
