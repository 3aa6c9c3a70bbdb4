// Sharded LRU cache for top-k query results.
//
// Production link-prediction traffic is heavily skewed — a few (entity,
// relation) pairs dominate (popular pages, trending items) — so a small
// LRU in front of the scorer absorbs most of the scans. The cache is
// sharded by key hash: each shard has its own mutex, hash map and
// intrusive LRU list, so concurrent lookups from the service's worker
// threads contend only when they hash to the same shard. Values are
// shared_ptr<const TopKResult>: a hit hands out a reference without
// copying the result vector, and eviction never invalidates a result a
// client still holds.
//
// Staleness under streaming updates. Every entry records the snapshot
// version it was computed from. Three mechanisms keep entries honest:
//
//  * clear() — full drop, for model swaps where everything changed.
//  * invalidate_entities(touched) — entity-keyed drop, for delta
//    refreshes: an entry is removed when its query-side entity or any
//    entity in its result list was touched. This is exact for every
//    cached score; the one conservative gap is a touched entity that was
//    *outside* a cached top-k and would now enter it, which is why
//    streaming deployments also set a version lag bound.
//  * set_max_version_lag(n) — get() treats entries older than n publishes
//    as misses (and erases them), bounding how long the gap above can
//    persist. 0 disables the bound (static serving).
//
// Counters (hits, misses, evictions, invalidations, invalidated entries,
// size) are relaxed atomics aggregated across shards.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "serve/scorer.hpp"

namespace dynkge::serve {

/// Pack the query identity into one 64-bit key. Field widths follow
/// kge::pack_triple: 21 bits for entity and relation ids (enough for
/// FB250K-scale graphs with huge headroom), 16 for k (kMaxTopK), 1 for
/// direction, 1 for the filter flag. Only a validated query (serve::
/// validate_query) has a key of its own: wider fields would alias.
constexpr std::uint64_t pack_query(const TopKQuery& q) noexcept {
  constexpr std::uint64_t kIdMask = (1ULL << 21) - 1;
  return (static_cast<std::uint64_t>(q.entity) & kIdMask) |
         ((static_cast<std::uint64_t>(q.relation) & kIdMask) << 21) |
         ((static_cast<std::uint64_t>(q.k) & 0xFFFF) << 42) |
         (static_cast<std::uint64_t>(q.direction == Direction::kHead) << 58) |
         (static_cast<std::uint64_t>(q.filter_known) << 59);
}

/// The fixed (query-side) entity a packed key was built from.
constexpr kge::EntityId query_entity_of(std::uint64_t key) noexcept {
  return static_cast<kge::EntityId>(key & ((1ULL << 21) - 1));
}

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;
  std::uint64_t invalidations = 0;        ///< clear() + invalidate_entities()
  std::uint64_t invalidated_entries = 0;  ///< entries those calls dropped

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class QueryCache {
 public:
  using ResultPtr = std::shared_ptr<const TopKResult>;

  /// `capacity` is the total entry budget, split evenly across
  /// `num_shards` (each shard gets at least one slot). capacity == 0
  /// disables the cache: get() always misses, put() is a no-op.
  explicit QueryCache(std::size_t capacity, std::size_t num_shards = 8);

  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  /// nullptr on miss; on hit the entry moves to most-recently-used.
  /// `current_version` is the snapshot version the caller serves from:
  /// with a version-lag bound set, entries computed too many publishes
  /// ago are dropped and reported as misses. Pass 0 (default) when not
  /// serving versioned snapshots.
  ResultPtr get(const TopKQuery& query, std::uint64_t current_version = 0);

  /// Insert or refresh, recording the snapshot `version` the result was
  /// computed from. Evicts the least-recently-used entry of the target
  /// shard when that shard is full.
  void put(const TopKQuery& query, ResultPtr result,
           std::uint64_t version = 0);

  /// Drop all entries (model swap). Counts one invalidation plus every
  /// dropped entry; returns the number dropped. Hit/miss counters are
  /// kept.
  std::uint64_t clear();

  /// Entity-keyed invalidation (delta refresh): drop entries whose
  /// query-side entity or any result entity is in `touched`. Returns the
  /// number of entries dropped.
  std::uint64_t invalidate_entities(std::span<const kge::EntityId> touched);

  /// Bound entry age to `lag` publishes (0 = unbounded). Not thread-safe
  /// against concurrent get(): set during wiring.
  void set_max_version_lag(std::uint64_t lag) { max_version_lag_ = lag; }

  CacheStats stats() const;

  std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::uint64_t key;
    ResultPtr result;
    std::uint64_t version;
  };

  struct Shard {
    std::mutex mutex;
    // LRU list, most-recent at front; map points into the list.
    std::list<Entry> lru;
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> evictions{0};
  };

  Shard& shard_for(std::uint64_t key) {
    // splitmix-style finalizer: pack_query keys differ in low bits only
    // for nearby ids, so mix before taking the shard index.
    std::uint64_t z = key + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return *shards_[(z ^ (z >> 31)) % shards_.size()];
  }

  std::size_t capacity_ = 0;
  std::size_t per_shard_capacity_ = 0;
  std::uint64_t max_version_lag_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> invalidations_{0};
  std::atomic<std::uint64_t> invalidated_entries_{0};
};

}  // namespace dynkge::serve
