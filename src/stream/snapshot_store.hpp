// SnapshotStore — immutable, versioned embedding snapshots with atomic
// zero-downtime hot-swap.
//
// The serving layer must keep answering queries while new model versions
// arrive (full retrains or incremental delta refreshes). The store holds
// one current version: an immutable model (shared_ptr<const KgeModel>)
// tagged with its version number.
//
//   * acquire() — copies the current version under a mutex that no one
//     holds for longer than one shared_ptr copy or swap. The returned
//     PinnedModel keeps its version alive via refcount for as long as the
//     request runs, so every read is served entirely from one version
//     ("stale reads are bounded to the pinned version").
//
//   * publish() — serialized by a publisher mutex. Swaps the new version
//     in under the same short lock and drops the displaced one outside
//     it: a superseded version is released (its shared_ptr deleter runs)
//     as soon as no request pins it.
//     Readers switch on their next acquire(); in-flight reads finish on
//     the version they pinned.
//
// Publish observers (registered once at wiring time) run on the publisher
// thread after the swap — the serving layer uses them for entity-keyed
// cache invalidation, metrics and JSONL events.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "kge/model.hpp"
#include "kge/triple.hpp"
#include "obs/telemetry.hpp"

namespace dynkge::stream {

/// One immutable model version. Copyable and cheap: the model lives for at
/// least as long as any PinnedModel that references it.
struct PinnedModel {
  std::shared_ptr<const kge::KgeModel> model;
  std::uint64_t version = 0;

  const kge::KgeModel& operator*() const { return *model; }
  const kge::KgeModel* operator->() const { return model.get(); }
  explicit operator bool() const { return model != nullptr; }
};

/// Called after a version becomes current: (version, entities whose rows
/// changed relative to the previous version; empty = treat everything as
/// changed, e.g. a full model swap).
using PublishObserver =
    std::function<void(std::uint64_t version,
                       const std::vector<kge::EntityId>& touched)>;

class SnapshotStore {
 public:
  SnapshotStore() = default;
  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// Install the first version (version 1). Must be called exactly once,
  /// before any acquire(); later versions go through publish().
  std::uint64_t init(std::shared_ptr<const kge::KgeModel> model);

  /// Atomically make `model` the current version and return its number.
  /// `touched` lists the entity rows that differ from the previous
  /// version (empty = full swap, everything may have changed); it is
  /// forwarded verbatim to publish observers. The new model must have the
  /// same entity/relation universe as the current one. Thread-safe
  /// against readers; concurrent publishers are serialized.
  std::uint64_t publish(std::shared_ptr<const kge::KgeModel> model,
                        std::vector<kge::EntityId> touched = {});

  /// Pin the current version: one shared_ptr copy under a lock that a
  /// publisher holds only for a pointer swap.
  PinnedModel acquire() const;

  /// Version of the current snapshot (0 before init()).
  std::uint64_t current_version() const;

  /// Publishes accepted since init() (each one advanced the version by 1).
  std::uint64_t publishes() const;

  /// Register a publish observer (called on the publisher thread, after
  /// the swap). Not thread-safe against concurrent publish(): register
  /// during wiring, before updates start flowing.
  void add_publish_observer(PublishObserver observer);

  /// Optional telemetry: stream.swap trace spans, stream.snapshots /
  /// stream.version metrics. Set during wiring.
  void set_telemetry(const obs::TelemetrySinks& sinks) { sinks_ = sinks; }

 private:
  mutable std::mutex current_mu_;  ///< held for one copy or swap only
  PinnedModel current_;            ///< guarded by current_mu_

  /// One publisher at a time: versions equal publish order, and observers
  /// see them in that order. Only holders of this mutex write current_.
  std::mutex publish_mu_;
  std::vector<PublishObserver> observers_;
  obs::TelemetrySinks sinks_;
};

}  // namespace dynkge::stream
