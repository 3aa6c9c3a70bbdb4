// End-to-end streaming serving: InferenceService on a SnapshotStore with
// a DeltaIngestor publishing incremental refreshes — zero-downtime swaps
// under concurrent read load, entity-keyed cache invalidation, admission
// shedding, and version pinning. The TSan CI job runs this file.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "kge/model_factory.hpp"
#include "serve/service.hpp"
#include "stream/delta_ingestor.hpp"

namespace dynkge::serve {
namespace {

using kge::EntityId;
using kge::RelationId;
using kge::Triple;

constexpr std::int32_t kEntities = 40;
constexpr std::int32_t kRelations = 3;

std::unique_ptr<kge::KgeModel> make_model(std::uint64_t seed = 31) {
  auto model = kge::make_model("complex", kEntities, kRelations, 4);
  util::Rng rng(seed);
  model->init(rng);
  return model;
}

TopKQuery query(EntityId entity, RelationId relation = 0,
                std::int32_t k = 5) {
  return TopKQuery{Direction::kTail, entity, relation, k, false};
}

stream::DeltaIngestor make_ingestor(InferenceService& service,
                                    std::size_t batch_size = 4) {
  stream::IngestConfig config;
  config.batch_size = batch_size;
  config.admission = &service.admission();
  return stream::DeltaIngestor(service.store(), config);
}

// The tentpole claim: no request fails while versions are hot-swapped at
// full speed. Readers hammer topk()/topk_batch() with no admission limit
// (so a null result can only mean a broken swap) while one thread streams
// deltas through the ingestor and another does full model swaps. The
// writers start once every reader has had its first query answered, so
// reads overlap the churn however the threads are scheduled.
TEST(StreamService, ZeroFailedRequestsUnderContinuousChurn) {
  const auto base = make_model();
  InferenceService service(kge::clone_model(*base), nullptr);
  auto ingestor = make_ingestor(service);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> failed{0};

  constexpr int kReaders = 3;
  std::latch readers_started(kReaders);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      util::Rng rng(1000 + static_cast<std::uint64_t>(t));
      std::vector<TopKQuery> batch(8);
      bool first = true;
      while (!done.load(std::memory_order_acquire)) {
        const auto q = query(
            static_cast<EntityId>(rng.next_below(kEntities)),
            static_cast<RelationId>(rng.next_below(kRelations)));
        if (service.topk(q) != nullptr) {
          answered.fetch_add(1, std::memory_order_relaxed);
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
        if (first) {
          readers_started.count_down();
          first = false;
        }
        for (auto& b : batch) {
          b = query(static_cast<EntityId>(rng.next_below(kEntities)));
        }
        for (const auto& result : service.topk_batch(batch)) {
          if (result != nullptr) {
            answered.fetch_add(1, std::memory_order_relaxed);
          } else {
            failed.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  readers_started.wait();
  std::thread updater([&] {
    util::Rng rng(7);
    for (int i = 0; i < 120; ++i) {
      ingestor.submit(
          {static_cast<EntityId>(rng.next_below(kEntities)),
           static_cast<RelationId>(rng.next_below(kRelations)),
           static_cast<EntityId>(rng.next_below(kEntities))});
    }
    ingestor.flush();
  });
  std::thread swapper([&] {
    for (int i = 0; i < 10; ++i) {
      service.swap_model(kge::clone_model(*base));
    }
  });
  updater.join();
  swapper.join();
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(failed.load(), 0u);
  EXPECT_GT(answered.load(), 0u);
  // 120 deltas / batch 4 = 30 refreshes + 10 swaps, serialized publishes.
  EXPECT_EQ(service.current_version(), 41u);
  EXPECT_EQ(service.snapshot().shed, 0u);
}

// Entity-keyed invalidation end to end: a delta refresh drops exactly the
// cached results that depend on touched entities. The untouched control
// query is chosen *after* scoring so none of its result entities collide
// with the entities the delta touches.
TEST(StreamService, DeltaRefreshInvalidatesTouchedQueriesOnly) {
  InferenceService service(make_model(), nullptr);
  auto ingestor = make_ingestor(service, /*batch_size=*/16);

  const TopKQuery control = query(0, 0, 3);
  const auto control_result = service.topk(control);
  ASSERT_NE(control_result, nullptr);

  // Pick a touched entity disjoint from the control's dependency set
  // (its query entity and every entity in its top-k).
  std::vector<EntityId> used{0};
  for (const auto& scored : *control_result) used.push_back(scored.entity);
  EntityId touched = 0;
  for (EntityId e = kEntities - 1; e > 0; --e) {
    if (std::find(used.begin(), used.end(), e) == used.end()) {
      touched = e;
      break;
    }
  }
  ASSERT_NE(touched, 0);

  const TopKQuery dependent = query(touched, 1, 3);
  const auto dependent_result = service.topk(dependent);
  ASSERT_NE(dependent_result, nullptr);

  ingestor.submit({touched, 0, touched});
  ASSERT_EQ(ingestor.flush(), 2u);  // returns the newly published version
  ASSERT_EQ(service.current_version(), 2u);

  // Dependent: recomputed (its query entity's row changed).
  const auto dependent_after = service.topk(dependent);
  ASSERT_NE(dependent_after, nullptr);
  EXPECT_NE(dependent_after.get(), dependent_result.get());
  // Control: still served from cache — the same shared result object.
  const auto control_after = service.topk(control);
  ASSERT_NE(control_after, nullptr);
  EXPECT_EQ(control_after.get(), control_result.get());

  const auto snapshot = service.snapshot();
  EXPECT_EQ(snapshot.cache.invalidations, 1u);
  EXPECT_GE(snapshot.cache.invalidated_entries, 1u);
}

// Stale reads are bounded to the pinned version: a pin taken before a
// swap keeps reading its own version's bytes, never a mix.
TEST(StreamService, PinnedReaderSeesItsVersionAcrossSwaps) {
  const auto base = make_model();
  InferenceService service(kge::clone_model(*base), nullptr);

  const auto pin = service.store().acquire();
  EXPECT_EQ(pin.version, 1u);
  service.swap_model(make_model(77));
  EXPECT_EQ(service.current_version(), 2u);
  EXPECT_EQ(pin.version, 1u);
  const auto base_flat = base->entities().flat();
  const auto pinned_flat = pin->entities().flat();
  for (std::size_t i = 0; i < base_flat.size(); ++i) {
    ASSERT_EQ(pinned_flat[i], base_flat[i]) << "element " << i;
  }
}

TEST(StreamService, CacheVersionLagForcesRescoreAfterManyPublishes) {
  const auto base = make_model();
  ServiceConfig config;
  config.cache_max_version_lag = 2;
  InferenceService service(kge::clone_model(*base), nullptr, config);

  const TopKQuery control = query(0, 0, 3);
  const auto first = service.topk(control);
  ASSERT_NE(first, nullptr);

  // Publishes whose touched sets avoid the control's dependency footprint
  // leave its entry in the cache... until the lag bound ages it out.
  std::vector<EntityId> touched_far{kEntities - 1};
  service.store().publish(kge::clone_model(*base), touched_far);
  const auto second = service.topk(control);
  EXPECT_EQ(second.get(), first.get());  // within the bound: still cached

  service.store().publish(kge::clone_model(*base), touched_far);
  service.store().publish(kge::clone_model(*base), touched_far);
  const auto third = service.topk(control);
  ASSERT_NE(third, nullptr);
  EXPECT_NE(third.get(), first.get());  // aged out: rescored
  EXPECT_EQ(*third, *first);            // same weights -> same answer
}

// A delta publish yields while reads sit at max_inflight, then goes
// through: updates wait for reads but are never starved.
TEST(StreamService, UpdateDeferralYieldsToSaturatedReads) {
  ServiceConfig config;
  config.max_inflight = 2;
  InferenceService service(make_model(), nullptr, config);
  auto ingestor = make_ingestor(service);
  stream::AdmissionController& admission = service.admission();

  ASSERT_TRUE(admission.try_enter_read(2));  // saturate reads
  ingestor.submit({1, 0, 2});
  EXPECT_EQ(ingestor.flush(), 2u);  // deferred (bounded), then published
  EXPECT_EQ(admission.update_deferrals(), 1u);

  admission.exit_read(2);
  ingestor.submit({3, 0, 4});
  EXPECT_EQ(ingestor.flush(), 3u);
  EXPECT_EQ(admission.update_deferrals(), 1u);  // no pressure, no wait
}

}  // namespace
}  // namespace dynkge::serve
