#include "stream/delta_ingestor.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "kge/model_factory.hpp"
#include "util/json_writer.hpp"
#include "util/stopwatch.hpp"

namespace dynkge::stream {

struct DeltaIngestor::ReturnSlot {
  std::mutex mu;
  bool open = true;  ///< false once the ingestor is gone
  /// The newest version handed back and not yet taken. `version` stays as
  /// a high-water mark after a take: an older version coming back later
  /// can never be caught up, so it is freed.
  std::unique_ptr<kge::KgeModel> model;
  std::uint64_t version = 0;
};

/// Deleter of every model the ingestor publishes: the last owner (the
/// store's publish that displaced it, or the reader whose pin outlived
/// that) hands the model back instead of freeing it.
struct DeltaIngestor::HandBack {
  std::shared_ptr<ReturnSlot> slot;
  std::uint64_t version = 0;  ///< set right after publish; 0 = never kept

  void operator()(const kge::KgeModel* published) const {
    // The ingestor built the model mutable and published it as const.
    std::unique_ptr<kge::KgeModel> model(
        const_cast<kge::KgeModel*>(published));
    {
      const std::lock_guard<std::mutex> lock(slot->mu);
      if (slot->open && version > slot->version) {
        std::swap(slot->model, model);
        slot->version = version;
      }
    }
    // `model` — the older buffer it displaced, or itself — is freed here,
    // outside the lock.
  }
};

DeltaIngestor::DeltaIngestor(SnapshotStore& store, const IngestConfig& config)
    : store_(store),
      config_(config),
      returned_(std::make_shared<ReturnSlot>()) {
  if (config_.batch_size == 0) {
    throw std::invalid_argument("DeltaIngestor: batch_size must be >= 1");
  }
  if (store_.current_version() == 0) {
    throw std::logic_error(
        "DeltaIngestor: SnapshotStore has no initial version (call init())");
  }
  const PinnedModel base = store_.acquire();
  num_entities_ = base.model->num_entities();
  num_relations_ = base.model->num_relations();
  pending_.reserve(config_.batch_size);
}

DeltaIngestor::~DeltaIngestor() {
  std::unique_ptr<kge::KgeModel> buffer;
  const std::lock_guard<std::mutex> lock(returned_->mu);
  returned_->open = false;
  buffer = std::move(returned_->model);
}

void DeltaIngestor::check_universe(const kge::Triple& delta) const {
  const auto entity = [&](kge::EntityId id) {
    return id >= 0 && id < num_entities_;
  };
  if (entity(delta.head) && entity(delta.tail) && delta.relation >= 0 &&
      delta.relation < num_relations_) {
    return;
  }
  throw std::out_of_range(
      "DeltaIngestor: delta (" + std::to_string(delta.head) + ", " +
      std::to_string(delta.relation) + ", " + std::to_string(delta.tail) +
      ") lies outside the universe of " + std::to_string(num_entities_) +
      " entities and " + std::to_string(num_relations_) + " relations");
}

bool DeltaIngestor::submit(const kge::Triple& delta) {
  check_universe(delta);
  return enqueue(delta);
}

std::size_t DeltaIngestor::submit_batch(std::span<const kge::Triple> deltas) {
  for (const kge::Triple& delta : deltas) check_universe(delta);
  std::size_t accepted = 0;
  for (const kge::Triple& delta : deltas) {
    if (enqueue(delta)) ++accepted;
  }
  return accepted;
}

bool DeltaIngestor::enqueue(const kge::Triple& delta) {
  std::vector<kge::Triple> to_flush;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    if (pending_.size() >= config_.max_pending) {
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      ++stats_.shed;
      if (config_.telemetry.metrics != nullptr) {
        config_.telemetry.metrics->counter("stream.deltas_shed").add(1);
      }
      return false;
    }
    pending_.push_back(delta);
    if (pending_.size() >= config_.batch_size) {
      to_flush.swap(pending_);
      pending_.reserve(config_.batch_size);
    }
  }
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.submitted;
  }
  if (config_.telemetry.metrics != nullptr) {
    config_.telemetry.metrics->counter("stream.deltas_ingested").add(1);
  }
  if (!to_flush.empty()) flush_batch(std::move(to_flush));
  return true;
}

std::uint64_t DeltaIngestor::flush() {
  std::vector<kge::Triple> batch;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    if (pending_.empty()) return 0;
    batch.swap(pending_);
    pending_.reserve(config_.batch_size);
  }
  return flush_batch(std::move(batch));
}

std::uint64_t DeltaIngestor::flush_batch(std::vector<kge::Triple>&& batch) {
  // One refresh at a time: versions are produced in flush order, so the
  // (seed, version) RNG derivation is stable across replays.
  std::lock_guard<std::mutex> flush_lock(flush_mu_);
  const obs::TraceSpan span(config_.telemetry.trace, "stream.refresh", 0);
  const util::Stopwatch clock;

  const PinnedModel base = store_.acquire();
  const std::uint64_t next_version = base.version + 1;

  std::unique_ptr<kge::KgeModel> refreshed = take_returned(base);
  const bool full_copy = refreshed == nullptr;
  if (full_copy) refreshed = kge::clone_model(*base.model);
  RefreshResult result = incremental_refresh(
      *refreshed, batch, next_version, config_.refresh, config_.dataset);

  // Updates yield to saturated read traffic (bounded), then swap in.
  if (config_.admission != nullptr) config_.admission->defer_update();
  const std::shared_ptr<const kge::KgeModel> published(
      refreshed.release(), HandBack{returned_});
  const std::uint64_t version = store_.publish(published, result.touched);
  // No one else can drop the model's last reference while `published`
  // holds one, so the deleter reads this version when it runs.
  std::get_deleter<HandBack>(published)->version = version;
  last_version_ = version;
  last_base_version_ = base.version;
  last_touched_ = result.touched;

  const double seconds = clock.seconds();
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.batches;
    stats_.touched_rows += result.touched.size();
    stats_.full_copies += full_copy ? 1 : 0;
    stats_.last_drift = result.drift;
    stats_.last_mean_loss = result.mean_loss;
  }
  if (config_.telemetry.metrics != nullptr) {
    auto& m = *config_.telemetry.metrics;
    m.counter("stream.batches").add(1);
    m.counter("stream.touched_entities").add(result.touched.size());
    m.counter("stream.refresh.full_copies").add(full_copy ? 1 : 0);
    m.histogram("stream.refresh_seconds").record(seconds);
    m.gauge("stream.refresh.drift").set(result.drift);
  }
  if (config_.telemetry.events != nullptr) {
    util::JsonWriter json;
    json.begin_object()
        .kv("event", "delta_batch")
        .kv("version", static_cast<std::int64_t>(version))
        .kv("deltas", batch.size())
        .kv("touched_entities", result.touched.size())
        .kv("row_updates", result.row_updates)
        .kv("mean_loss", result.mean_loss)
        .kv("drift", result.drift)
        .kv("refresh_seconds", seconds)
        .end_object();
    config_.telemetry.events->write_line(json.str());
  }
  return version;
}

std::unique_ptr<kge::KgeModel> DeltaIngestor::take_returned(
    const PinnedModel& current) {
  std::unique_ptr<kge::KgeModel> buffer;
  std::uint64_t buffer_version = 0;
  {
    const std::lock_guard<std::mutex> lock(returned_->mu);
    buffer = std::move(returned_->model);
    buffer_version = returned_->version;
  }
  // The buffer qualifies when `current` is this ingestor's last publish
  // and was refreshed from the buffer's version: the two then differ only
  // in last_touched_. A buffer that does not qualify now never will, and
  // is freed.
  if (buffer == nullptr || current.version != last_version_ ||
      buffer_version != last_base_version_) {
    return nullptr;
  }
  for (const kge::EntityId id : last_touched_) {
    const auto row = current->entities().row(id);
    std::copy(row.begin(), row.end(), buffer->entities().row(id).begin());
  }
  return buffer;
}

std::size_t DeltaIngestor::pending() const {
  std::lock_guard<std::mutex> lock(pending_mu_);
  return pending_.size();
}

IngestStats DeltaIngestor::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace dynkge::stream
