#include "serve/service.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <thread>
#include <vector>

#include "kge/model_factory.hpp"
#include "kge/serialize.hpp"

namespace dynkge::serve {
namespace {

using kge::Dataset;
using kge::EntityId;
using kge::RelationId;
using kge::Triple;

constexpr std::int32_t kEntities = 40;
constexpr std::int32_t kRelations = 3;

Dataset make_dataset() {
  util::Rng rng(23);
  const auto triple = [&] {
    return Triple{static_cast<EntityId>(rng.next_below(kEntities)),
                  static_cast<RelationId>(rng.next_below(kRelations)),
                  static_cast<EntityId>(rng.next_below(kEntities))};
  };
  kge::TripleList train, valid, test;
  for (int i = 0; i < 80; ++i) train.push_back(triple());
  for (int i = 0; i < 10; ++i) valid.push_back(triple());
  for (int i = 0; i < 10; ++i) test.push_back(triple());
  return Dataset(kEntities, kRelations, train, valid, test);
}

/// Shared, so a test can serve the model and still score it directly.
std::shared_ptr<kge::KgeModel> make_initialized(const std::string& name) {
  auto model = kge::make_model(name, kEntities, kRelations, 4);
  util::Rng rng(31);
  model->init(rng);
  return model;
}

class InferenceServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dynkge_serve_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(InferenceServiceTest, AnswersMatchDirectScorer) {
  const auto model = make_initialized("complex");
  const Dataset dataset = make_dataset();
  const TopKScorer reference(&dataset);
  InferenceService service(model, &dataset);

  const TopKQuery q{Direction::kTail, 2, 1, 5, false};
  const auto served = service.topk(q);
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(*served, reference.topk(q, *model));
}

TEST_F(InferenceServiceTest, CacheHitReturnsSameResultObject) {
  const auto model = make_initialized("complex");
  InferenceService service(model, nullptr);
  const TopKQuery q{Direction::kTail, 1, 0, 8, false};
  const auto first = service.topk(q);
  const auto second = service.topk(q);
  EXPECT_EQ(first.get(), second.get());  // shared, not recomputed

  const auto snapshot = service.snapshot();
  EXPECT_EQ(snapshot.queries, 2u);
  EXPECT_EQ(snapshot.cache.hits, 1u);
  EXPECT_EQ(snapshot.cache.misses, 1u);
}

TEST_F(InferenceServiceTest, SwapInvalidatesCacheAndBumpsVersion) {
  const auto model = make_initialized("complex");
  InferenceService service(model, nullptr);
  EXPECT_EQ(service.current_version(), 1u);
  const TopKQuery q{Direction::kTail, 1, 0, 8, false};
  const auto first = service.topk(q);
  // Swapping in a byte-identical clone must clear the cache (a swap
  // promises nothing about what changed) and advance the version...
  EXPECT_EQ(service.swap_model(kge::clone_model(*model)), 2u);
  EXPECT_EQ(service.current_version(), 2u);
  const auto second = service.topk(q);
  EXPECT_NE(first.get(), second.get());  // recomputed, not cached
  EXPECT_EQ(*first, *second);            // same weights -> same answer
  const auto snapshot = service.snapshot();
  EXPECT_EQ(snapshot.cache.invalidations, 1u);
  EXPECT_EQ(snapshot.cache.invalidated_entries, 1u);
}

TEST_F(InferenceServiceTest, AdmissionShedsBeyondInflightLimit) {
  const auto model = make_initialized("complex");
  ServiceConfig config;
  config.max_inflight = 1;
  InferenceService service(model, nullptr, config);
  // Saturate the admission window from the outside, then observe a shed.
  ASSERT_TRUE(service.admission().try_enter_read(1));
  EXPECT_EQ(service.topk({Direction::kTail, 1, 0, 4, false}), nullptr);
  service.admission().exit_read(1);
  EXPECT_NE(service.topk({Direction::kTail, 1, 0, 4, false}), nullptr);
  const auto snapshot = service.snapshot();
  EXPECT_EQ(snapshot.shed, 1u);
  EXPECT_EQ(snapshot.queries, 1u);
}

// One knob: while reads sit at max_inflight, a publish waits a bounded
// number of yields; once a read slot frees up it does not wait at all.
TEST_F(InferenceServiceTest, UpdatesDeferWhileReadsSitAtInflightLimit) {
  ServiceConfig config;
  config.max_inflight = 2;
  InferenceService service(make_initialized("complex"), nullptr, config);
  stream::AdmissionController& admission = service.admission();
  ASSERT_TRUE(admission.try_enter_read(1));
  ASSERT_TRUE(admission.try_enter_read(1));  // both read slots taken
  EXPECT_EQ(admission.defer_update(),
            stream::AdmissionController::kMaxDeferRounds);
  admission.exit_read(1);
  EXPECT_EQ(admission.defer_update(), 0);
  admission.exit_read(1);
  EXPECT_EQ(admission.update_deferrals(), 1u);
}

TEST_F(InferenceServiceTest, BatchMatchesSingleQueries) {
  const auto model = make_initialized("complex");
  const Dataset dataset = make_dataset();
  const TopKScorer reference(&dataset);
  InferenceService service(model, &dataset);

  std::vector<TopKQuery> batch;
  for (EntityId e = 0; e < 12; ++e) {
    batch.push_back({e % 2 == 0 ? Direction::kTail : Direction::kHead, e,
                     static_cast<RelationId>(e % kRelations), 6, e % 3 == 0});
  }
  // Duplicates inside the batch must be deduplicated, not recomputed.
  batch.push_back(batch[0]);
  batch.push_back(batch[3]);

  const auto results = service.topk_batch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_NE(results[i], nullptr) << i;
    EXPECT_EQ(*results[i], reference.topk(batch[i], *model)) << i;
  }
  EXPECT_EQ(results[0].get(), results[batch.size() - 2].get());
  EXPECT_EQ(results[3].get(), results[batch.size() - 1].get());
  EXPECT_EQ(service.snapshot().queries, batch.size());
}

TEST_F(InferenceServiceTest, BatchStreamCountsEachDistinctQueryOnce) {
  const auto model = make_initialized("complex");
  const Dataset dataset = make_dataset();
  const TopKScorer reference(&dataset);
  InferenceService service(model, &dataset, ServiceConfig{2, 1024});

  // A fixed stream: 12 batches of 10 drawn from 16 queries, so batches
  // repeat queries within and across themselves.
  std::vector<TopKQuery> identities;
  for (EntityId e = 0; e < 16; ++e) {
    identities.push_back({e % 3 == 0 ? Direction::kHead : Direction::kTail,
                          (e * 5) % kEntities,
                          static_cast<RelationId>(e % kRelations), 4,
                          e % 2 == 0});
  }
  util::Rng rng(41);
  std::uint64_t hits = 0, misses = 0;
  std::vector<bool> cached(identities.size(), false);
  for (int round = 0; round < 12; ++round) {
    std::vector<TopKQuery> batch;
    std::vector<std::size_t> ids;
    for (int i = 0; i < 10; ++i) {
      ids.push_back(rng.next_below(identities.size()));
      batch.push_back(identities[ids.back()]);
    }
    const auto results = service.topk_batch(batch);
    ASSERT_EQ(results.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_NE(results[i], nullptr);
      EXPECT_EQ(*results[i], reference.topk(batch[i], *model))
          << "round " << round << " slot " << i;
    }
    // Each distinct query of a batch is one lookup: a hit if an earlier
    // batch scored it (the cache holds them all), else a miss.
    std::vector<bool> seen(identities.size(), false);
    for (const std::size_t id : ids) {
      if (seen[id]) continue;
      seen[id] = true;
      (cached[id] ? hits : misses) += 1;
      cached[id] = true;
    }
  }
  const CacheStats stats = service.snapshot().cache;
  EXPECT_EQ(stats.hits, hits);
  EXPECT_EQ(stats.misses, misses);
  EXPECT_EQ(stats.entries, misses);
}

TEST_F(InferenceServiceTest, ConcurrentClientsGetConsistentAnswers) {
  const auto model = make_initialized("complex");
  InferenceService service(model, nullptr, ServiceConfig{2, 64});
  const TopKScorer reference;

  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&service, &reference, &model, c] {
      for (int i = 0; i < 25; ++i) {
        const TopKQuery q{Direction::kTail,
                          static_cast<EntityId>((c * 25 + i) % kEntities),
                          static_cast<RelationId>(i % kRelations), 5, false};
        const auto result = service.topk(q);
        if (result == nullptr) {
          ADD_FAILURE() << "null result";
          continue;
        }
        EXPECT_EQ(*result, reference.topk(q, *model));
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(service.snapshot().queries, 100u);
}

TEST_F(InferenceServiceTest, SnapshotTracksLatencyAndSummary) {
  const auto model = make_initialized("complex");
  InferenceService service(model, nullptr);
  for (int i = 0; i < 20; ++i) {
    service.topk({Direction::kTail, static_cast<EntityId>(i % kEntities),
                  0, 4, false});
  }
  const auto snapshot = service.snapshot();
  EXPECT_EQ(snapshot.queries, 20u);
  EXPECT_GT(snapshot.mean_latency_seconds, 0.0);
  EXPECT_GE(snapshot.p99_seconds, snapshot.p50_seconds);
  EXPECT_NE(snapshot.summary().find("p95"), std::string::npos);

  service.reset_metrics();
  EXPECT_EQ(service.snapshot().queries, 0u);
}

/// Checkpoint -> serve round trip for every model type the serializer
/// understands: results served from a loaded checkpoint must be identical
/// to scoring the in-memory model that produced it.
TEST_F(InferenceServiceTest, CheckpointRoundTripServesIdenticalTopK) {
  const Dataset dataset = make_dataset();
  for (const char* name : {"complex", "distmult", "transe", "rotate"}) {
    const auto model = make_initialized(name);
    const std::string file = path(std::string(name) + ".dkge");
    kge::save_model(*model, file);

    const auto service =
        InferenceService::from_checkpoint(file, &dataset);
    ASSERT_NE(service, nullptr) << name;
    const TopKScorer reference(&dataset);
    for (const auto direction : {Direction::kTail, Direction::kHead}) {
      for (EntityId e = 0; e < 6; ++e) {
        const TopKQuery q{direction, e,
                          static_cast<RelationId>(e % kRelations), 7,
                          e % 2 == 0};
        const auto served = service->topk(q);
        ASSERT_NE(served, nullptr) << name;
        EXPECT_EQ(*served, reference.topk(q, *model)) << name;
      }
    }
  }
}

// The cache key keeps 16 bits of k and 21 of the entity id, so an
// unvalidated k = 10 + 2^16 or entity 5 + 2^21 would be answered with
// another query's cached entry. Both are refused before the cache, with
// the scorer's exception types.
TEST_F(InferenceServiceTest, QueriesAliasingACachedKeyAreRejected) {
  const auto model = make_initialized("complex");
  InferenceService service(model, nullptr);
  const TopKQuery cached{Direction::kTail, 5, 1, 10, false};
  ASSERT_NE(service.topk(cached), nullptr);

  TopKQuery wide_k = cached;
  wide_k.k += 1 << 16;
  EXPECT_THROW(service.topk(wide_k), std::invalid_argument);
  TopKQuery wide_entity = cached;
  wide_entity.entity += 1 << 21;
  EXPECT_THROW(service.topk(wide_entity), std::out_of_range);

  const auto snapshot = service.snapshot();
  EXPECT_EQ(snapshot.queries, 1u);
  EXPECT_EQ(snapshot.cache.hits, 0u);
  // The widest k the key holds is served (clamped to the entity count).
  TopKQuery widest = cached;
  widest.k = kMaxTopK;
  EXPECT_EQ(service.topk(widest)->size(),
            static_cast<std::size_t>(kEntities));
}

TEST_F(InferenceServiceTest, BatchedAliasesAreRejectedBeforeDedup) {
  // Inside a batch an alias would deduplicate onto the valid query's slot;
  // across batches it would hit the valid query's cached entry.
  const auto model = make_initialized("complex");
  InferenceService service(model, nullptr);
  const TopKQuery valid{Direction::kHead, 5, 2, 10, false};
  TopKQuery wide_k = valid;
  wide_k.k += 1 << 16;
  TopKQuery wide_entity = valid;
  wide_entity.entity += 1 << 21;

  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass == 0 ? "uncached" : "cached");
    EXPECT_THROW(service.topk_batch(std::vector<TopKQuery>{valid, wide_k}),
                 std::invalid_argument);
    EXPECT_THROW(
        service.topk_batch(std::vector<TopKQuery>{valid, wide_entity}),
        std::out_of_range);
    EXPECT_THROW(service.topk_batch(std::vector<TopKQuery>{wide_k}),
                 std::invalid_argument);
    EXPECT_THROW(service.topk_batch(std::vector<TopKQuery>{wide_entity}),
                 std::out_of_range);
    const auto answers = service.topk_batch(std::vector<TopKQuery>{valid});
    ASSERT_EQ(answers.size(), 1u);
    ASSERT_NE(answers[0], nullptr);
    EXPECT_EQ(answers[0]->size(), 10u);
  }
  EXPECT_EQ(service.snapshot().queries, 2u);
}

TEST_F(InferenceServiceTest, FromCheckpointMissingFileThrows) {
  EXPECT_THROW(InferenceService::from_checkpoint(path("absent.dkge")),
               std::runtime_error);
}

}  // namespace
}  // namespace dynkge::serve
