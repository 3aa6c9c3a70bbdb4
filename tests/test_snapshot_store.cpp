#include "stream/snapshot_store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "kge/model_factory.hpp"

namespace dynkge::stream {
namespace {

constexpr std::int32_t kEntities = 20;
constexpr std::int32_t kRelations = 3;

std::unique_ptr<kge::KgeModel> make_model(std::uint64_t seed = 7,
                                          std::int32_t entities = kEntities) {
  auto model = kge::make_model("distmult", entities, kRelations, 4);
  util::Rng rng(seed);
  model->init(rng);
  return model;
}

TEST(SnapshotStore, InitInstallsVersionOne) {
  SnapshotStore store;
  EXPECT_EQ(store.current_version(), 0u);
  EXPECT_EQ(store.init(std::shared_ptr<const kge::KgeModel>(make_model())),
            1u);
  EXPECT_EQ(store.current_version(), 1u);
  const PinnedModel pin = store.acquire();
  ASSERT_TRUE(pin);
  EXPECT_EQ(pin.version, 1u);
  EXPECT_EQ(pin->num_entities(), kEntities);
}

TEST(SnapshotStore, InitAndPublishValidate) {
  SnapshotStore store;
  EXPECT_THROW(store.init(std::shared_ptr<const kge::KgeModel>()),
               std::invalid_argument);
  EXPECT_THROW(store.publish(make_model()), std::logic_error);  // before init
  store.init(std::shared_ptr<const kge::KgeModel>(make_model()));
  EXPECT_THROW(store.init(std::shared_ptr<const kge::KgeModel>(make_model())),
               std::logic_error);  // double init
  EXPECT_THROW(store.publish(std::shared_ptr<const kge::KgeModel>()),
               std::invalid_argument);
  // A snapshot with a different entity universe is a retrain artifact that
  // must not be hot-swapped under queries built for the old universe.
  EXPECT_THROW(store.publish(make_model(7, kEntities + 1)),
               std::invalid_argument);
  EXPECT_EQ(store.current_version(), 1u);  // failed publishes change nothing
}

TEST(SnapshotStore, PublishAdvancesVersionAndSwapsModel) {
  SnapshotStore store;
  store.init(std::shared_ptr<const kge::KgeModel>(make_model(1)));
  auto second = make_model(2);
  const kge::KgeModel* second_raw = second.get();
  EXPECT_EQ(store.publish(std::move(second)), 2u);
  EXPECT_EQ(store.current_version(), 2u);
  EXPECT_EQ(store.publishes(), 1u);
  const PinnedModel pin = store.acquire();
  EXPECT_EQ(pin.version, 2u);
  EXPECT_EQ(pin.model.get(), second_raw);
}

// The store keeps only the current version: a superseded one lives
// exactly as long as some request pins it.
TEST(SnapshotStore, SupersededVersionLivesOnlyWhilePinned) {
  {
    SnapshotStore store;
    store.init(std::shared_ptr<const kge::KgeModel>(make_model(1)));
    const PinnedModel pin = store.acquire();
    const std::weak_ptr<const kge::KgeModel> first = pin.model;
    const float first_value = pin->entities().flat()[0];
    for (std::uint64_t i = 0; i < 6; ++i) store.publish(make_model(100 + i));

    // The pin still reads its own version's bytes: its shared_ptr keeps
    // the superseded snapshot alive for as long as the request runs.
    EXPECT_FALSE(first.expired());
    EXPECT_EQ(pin.version, 1u);
    EXPECT_EQ(pin->entities().flat()[0], first_value);
  }

  // With no pin, version 1 is freed by the very next publish.
  SnapshotStore store;
  store.init(std::shared_ptr<const kge::KgeModel>(make_model(1)));
  const std::weak_ptr<const kge::KgeModel> first = store.acquire().model;
  ASSERT_FALSE(first.expired());
  store.publish(make_model(2));
  EXPECT_TRUE(first.expired());
}

TEST(SnapshotStore, ObserversSeeVersionAndTouchedEntities) {
  SnapshotStore store;
  store.init(std::shared_ptr<const kge::KgeModel>(make_model()));
  std::vector<std::uint64_t> versions;
  std::vector<std::size_t> touched_sizes;
  store.add_publish_observer(
      [&](std::uint64_t version, const std::vector<kge::EntityId>& touched) {
        versions.push_back(version);
        touched_sizes.push_back(touched.size());
      });
  store.publish(make_model(2));                        // full swap
  store.publish(make_model(3), {1, 4, 9});             // delta refresh
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[0], 2u);
  EXPECT_EQ(versions[1], 3u);
  EXPECT_EQ(touched_sizes[0], 0u);
  EXPECT_EQ(touched_sizes[1], 3u);
}

// The zero-downtime core claim, aimed at the TSan job: readers acquire and
// score continuously while a publisher hot-swaps versions as fast as it
// can. Every acquire must return a coherent (model, version) pair — a
// model whose bytes belong to exactly one version — and no read may fail.
TEST(SnapshotStore, ConcurrentReadersSurviveContinuousPublishes) {
  // Each version v fills its embeddings with the constant v, so a torn
  // read (bytes from two versions) is detectable from any two elements.
  const auto constant_model = [](float value) {
    auto model = kge::make_model("distmult", kEntities, kRelations, 4);
    for (auto& x : model->entities().flat()) x = value;
    for (auto& x : model->relations().flat()) x = value;
    return model;
  };

  SnapshotStore store;
  store.init(
      std::shared_ptr<const kge::KgeModel>(constant_model(1.0f)));

  constexpr int kPublishes = 200;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<int> torn{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      std::uint64_t last_version = 0;
      // Minimum iteration count: under a loaded scheduler the publisher
      // can finish before a reader thread even starts.
      for (int i = 0; i < 200 || !done.load(std::memory_order_acquire);
           ++i) {
        const PinnedModel pin = store.acquire();
        if (!pin) {
          ++torn;
          continue;
        }
        // Versions move forward only.
        if (pin.version < last_version) ++torn;
        last_version = pin.version;
        // All bytes belong to one version: constant fill value matching
        // the version number.
        const auto flat = pin->entities().flat();
        const float expected = static_cast<float>(pin.version);
        if (flat.front() != expected || flat.back() != expected) ++torn;
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int i = 2; i <= kPublishes + 1; ++i) {
    store.publish(constant_model(static_cast<float>(i)));
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(store.current_version(), static_cast<std::uint64_t>(kPublishes + 1));
}

}  // namespace
}  // namespace dynkge::stream
