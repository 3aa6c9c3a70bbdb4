#include "stream/snapshot_store.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace dynkge::stream {

std::uint64_t SnapshotStore::init(
    std::shared_ptr<const kge::KgeModel> model) {
  if (model == nullptr) {
    throw std::invalid_argument("SnapshotStore::init: null model");
  }
  const std::lock_guard<std::mutex> publisher(publish_mu_);
  const std::lock_guard<std::mutex> lock(current_mu_);
  if (current_) {
    throw std::logic_error("SnapshotStore::init: already initialized");
  }
  current_ = PinnedModel{std::move(model), 1};
  return 1;
}

std::uint64_t SnapshotStore::publish(
    std::shared_ptr<const kge::KgeModel> model,
    std::vector<kge::EntityId> touched) {
  if (model == nullptr) {
    throw std::invalid_argument("SnapshotStore::publish: null model");
  }
  const std::lock_guard<std::mutex> publisher(publish_mu_);
  // Only publishers write current_, so `previous` stays the current
  // version until the swap below.
  PinnedModel previous = acquire();
  if (!previous) {
    throw std::logic_error("SnapshotStore::publish: init() first");
  }
  const obs::TraceSpan span(sinks_.trace, "stream.swap", 0);
  if (model->num_entities() != previous->num_entities() ||
      model->num_relations() != previous->num_relations()) {
    throw std::invalid_argument(
        "SnapshotStore::publish: entity/relation universe mismatch "
        "(expected " +
        std::to_string(previous->num_entities()) + " entities, " +
        std::to_string(previous->num_relations()) + " relations; got " +
        std::to_string(model->num_entities()) + ", " +
        std::to_string(model->num_relations()) + ")");
  }

  const std::uint64_t version = previous.version + 1;
  {
    const std::lock_guard<std::mutex> lock(current_mu_);
    current_ = PinnedModel{std::move(model), version};
  }
  // Drop the displaced version outside the reader lock: it is released
  // here unless a request still pins it.
  previous = {};

  if (sinks_.metrics != nullptr) {
    sinks_.metrics->counter("stream.snapshots_published").add(1);
    sinks_.metrics->gauge("stream.version").set(static_cast<double>(version));
  }
  for (const auto& observer : observers_) observer(version, touched);
  return version;
}

PinnedModel SnapshotStore::acquire() const {
  const std::lock_guard<std::mutex> lock(current_mu_);
  return current_;
}

std::uint64_t SnapshotStore::current_version() const {
  const std::lock_guard<std::mutex> lock(current_mu_);
  return current_.version;
}

std::uint64_t SnapshotStore::publishes() const {
  const std::uint64_t version = current_version();
  return version == 0 ? 0 : version - 1;
}

void SnapshotStore::add_publish_observer(PublishObserver observer) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  observers_.push_back(std::move(observer));
}

}  // namespace dynkge::stream
