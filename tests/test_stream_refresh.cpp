#include "stream/refresh.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>

#include "golden_digest.hpp"
#include "kge/model_factory.hpp"
#include "stream/delta.hpp"
#include "stream/delta_ingestor.hpp"
#include "stream/snapshot_store.hpp"

namespace dynkge::stream {
namespace {

using kge::EntityId;
using kge::Triple;
using kge::TripleList;

constexpr std::int32_t kEntities = 30;
constexpr std::int32_t kRelations = 4;

std::unique_ptr<kge::KgeModel> make_base(std::uint64_t seed = 17) {
  auto model = kge::make_model("complex", kEntities, kRelations, 4);
  util::Rng rng(seed);
  model->init(rng);
  return model;
}

kge::Dataset make_dataset() {
  util::Rng rng(5);
  const auto triple = [&] {
    return Triple{static_cast<EntityId>(rng.next_below(kEntities)),
                  static_cast<kge::RelationId>(rng.next_below(kRelations)),
                  static_cast<EntityId>(rng.next_below(kEntities))};
  };
  TripleList train, valid, test;
  for (int i = 0; i < 60; ++i) train.push_back(triple());
  for (int i = 0; i < 8; ++i) valid.push_back(triple());
  for (int i = 0; i < 8; ++i) test.push_back(triple());
  return kge::Dataset(kEntities, kRelations, train, valid, test);
}

const TripleList kDeltas = {
    {2, 1, 7}, {7, 0, 9}, {2, 3, 11}, {11, 2, 2},
};

TEST(IncrementalRefresh, OnlyTouchedEntityRowsChange) {
  const auto base = make_base();
  auto refreshed = kge::clone_model(*base);
  const RefreshResult result =
      incremental_refresh(*refreshed, kDeltas, /*version=*/2, {});

  // Touched = exactly the heads and tails of the batch, sorted unique.
  const std::set<EntityId> expected{2, 7, 9, 11};
  EXPECT_EQ(std::set<EntityId>(result.touched.begin(), result.touched.end()),
            expected);
  EXPECT_TRUE(
      std::is_sorted(result.touched.begin(), result.touched.end()));
  EXPECT_GT(result.row_updates, 0u);
  EXPECT_GT(result.drift, 0.0);

  // The frozen-base contract, byte for byte.
  for (EntityId e = 0; e < kEntities; ++e) {
    const auto before = base->entities().row(e);
    const auto after = refreshed->entities().row(e);
    const bool touched = expected.count(e) != 0;
    bool identical = true;
    for (std::size_t i = 0; i < before.size(); ++i) {
      identical = identical && before[i] == after[i];
    }
    EXPECT_EQ(identical, !touched) << "entity " << e;
  }
  // Relations are never written.
  const auto rel_before = base->relations().flat();
  const auto rel_after = refreshed->relations().flat();
  for (std::size_t i = 0; i < rel_before.size(); ++i) {
    ASSERT_EQ(rel_before[i], rel_after[i]) << "relation element " << i;
  }
}

TEST(IncrementalRefresh, ByteReproducibleForSameSeedVersionAndOrder) {
  const auto base = make_base();
  auto a = kge::clone_model(*base);
  auto b = kge::clone_model(*base);
  RefreshParams params;
  params.seed = 99;
  incremental_refresh(*a, kDeltas, /*version=*/5, params);
  incremental_refresh(*b, kDeltas, /*version=*/5, params);
  const auto fa = a->entities().flat();
  const auto fb = b->entities().flat();
  for (std::size_t i = 0; i < fa.size(); ++i) {
    ASSERT_EQ(fa[i], fb[i]) << "element " << i;
  }
}

TEST(IncrementalRefresh, DifferentVersionsDecorrelateTheRngStream) {
  const auto base = make_base();
  auto a = kge::clone_model(*base);
  auto b = kge::clone_model(*base);
  incremental_refresh(*a, kDeltas, /*version=*/2, {});
  incremental_refresh(*b, kDeltas, /*version=*/3, {});
  const auto fa = a->entities().flat();
  const auto fb = b->entities().flat();
  bool any_difference = false;
  for (std::size_t i = 0; i < fa.size(); ++i) {
    any_difference = any_difference || fa[i] != fb[i];
  }
  EXPECT_TRUE(any_difference);
}

TEST(IncrementalRefresh, HardNegativeMiningPathIsDeterministicToo) {
  const auto base = make_base();
  const kge::Dataset dataset = make_dataset();
  RefreshParams params;
  params.negatives_sampled = 6;
  params.negatives_used = 2;  // < sampled -> strategy-5 hard mining
  auto a = kge::clone_model(*base);
  auto b = kge::clone_model(*base);
  incremental_refresh(*a, kDeltas, 2, params, &dataset);
  incremental_refresh(*b, kDeltas, 2, params, &dataset);
  const auto fa = a->entities().flat();
  const auto fb = b->entities().flat();
  for (std::size_t i = 0; i < fa.size(); ++i) {
    ASSERT_EQ(fa[i], fb[i]) << "element " << i;
  }
}

TEST(IncrementalRefresh, EmptyBatchIsANoop) {
  const auto base = make_base();
  auto refreshed = kge::clone_model(*base);
  const RefreshResult result = incremental_refresh(*refreshed, {}, 2, {});
  EXPECT_TRUE(result.touched.empty());
  EXPECT_EQ(result.row_updates, 0u);
  const auto before = base->entities().flat();
  const auto after = refreshed->entities().flat();
  for (std::size_t i = 0; i < before.size(); ++i) {
    ASSERT_EQ(before[i], after[i]);
  }
}

// ---- golden bytes ------------------------------------------------------
//
// Every other refresh test compares a run with itself, so a change that
// moves refresh bytes passes them all. These cases pin the bytes instead:
// 4 models x {no dataset, dataset with weight decay, hard mining 6->2} x
// {1, 2, 3} steps, each refreshing three chained versions with one
// 64-delta batch. The batch names only entities below kGoldenTouched, so
// corruptions also land on untouched rows (whose gradients the refresh
// must drop), and every eighth delta is a self-loop (h == t).

constexpr std::int32_t kGoldenEntities = 120;
constexpr std::int32_t kGoldenRelations = 6;
constexpr std::int32_t kGoldenTouched = 48;

const char* const kGoldenModels[] = {"complex", "distmult", "transe",
                                     "rotate"};
const char* const kGoldenModes[] = {"plain", "decay", "hard"};

TripleList golden_deltas() {
  util::Rng rng(64);
  TripleList deltas;
  for (int i = 0; i < 64; ++i) {
    Triple t;
    t.head = static_cast<EntityId>(rng.next_below(kGoldenTouched));
    t.relation = static_cast<kge::RelationId>(rng.next_below(kGoldenRelations));
    t.tail = i % 8 == 0 ? t.head
                        : static_cast<EntityId>(rng.next_below(kGoldenTouched));
    deltas.push_back(t);
  }
  return deltas;
}

const kge::Dataset& golden_dataset() {
  static const kge::Dataset dataset = [] {
    util::Rng rng(808);
    const auto triple = [&] {
      return Triple{
          static_cast<EntityId>(rng.next_below(kGoldenEntities)),
          static_cast<kge::RelationId>(rng.next_below(kGoldenRelations)),
          static_cast<EntityId>(rng.next_below(kGoldenEntities))};
    };
    TripleList train, valid, test;
    for (int i = 0; i < 400; ++i) train.push_back(triple());
    for (int i = 0; i < 16; ++i) valid.push_back(triple());
    for (int i = 0; i < 16; ++i) test.push_back(triple());
    return kge::Dataset(kGoldenEntities, kGoldenRelations, train, valid,
                        test);
  }();
  return dataset;
}

/// Refresh three chained versions and digest the final entity and
/// relation bytes plus every version's mean_loss, drift and row_updates.
std::uint64_t refresh_digest(const std::string& model_name,
                             const std::string& mode, int steps) {
  auto model =
      kge::make_model(model_name, kGoldenEntities, kGoldenRelations, 4);
  util::Rng init(17);
  model->init(init);

  RefreshParams params;
  params.steps = steps;
  params.seed = 2024;
  const kge::Dataset* dataset = nullptr;
  if (mode == "decay") {
    dataset = &golden_dataset();
    params.weight_decay = 0.01;
  } else if (mode == "hard") {
    dataset = &golden_dataset();
    params.negatives_sampled = 6;
    params.negatives_used = 2;
  }

  const TripleList deltas = golden_deltas();
  std::uint64_t hash = util::kFnv1aOffset;
  for (std::uint64_t version = 2; version <= 4; ++version) {
    const RefreshResult result =
        incremental_refresh(*model, deltas, version, params, dataset);
    hash = testing_util::fnv1a_value(result.mean_loss, hash);
    hash = testing_util::fnv1a_value(result.drift, hash);
    hash = testing_util::fnv1a_value(
        static_cast<std::uint64_t>(result.row_updates), hash);
  }
  return testing_util::model_digest(*model, hash);
}

// Captured on x86-64, GCC 12, glibc 2.36 libm. Another libm or ISA may
// move them; a change on this platform is a real numerical change.
const std::map<std::string, std::uint64_t>& refresh_goldens() {
  static const std::map<std::string, std::uint64_t> goldens = {
      {"complex_plain_1", 0x46c1f7e2148669b8ULL},
      {"complex_plain_2", 0xc5533793249bdea0ULL},
      {"complex_plain_3", 0x4c412d52364200f5ULL},
      {"complex_decay_1", 0xebe5a809c8ff6b01ULL},
      {"complex_decay_2", 0x7d65ff5e85a0f3a5ULL},
      {"complex_decay_3", 0x1ac361e47eab7ba4ULL},
      {"complex_hard_1", 0x607589bacad763e0ULL},
      {"complex_hard_2", 0x0104dc3a56a57f51ULL},
      {"complex_hard_3", 0x8e8d97887b687e58ULL},
      {"distmult_plain_1", 0xa450eace12c33a7eULL},
      {"distmult_plain_2", 0xde6fbeb36882a1e0ULL},
      {"distmult_plain_3", 0xd9854c7364a47cc7ULL},
      {"distmult_decay_1", 0xf2d6c8466df2e93cULL},
      {"distmult_decay_2", 0x00c52ace6e275cbeULL},
      {"distmult_decay_3", 0x04adf0677cb8a061ULL},
      {"distmult_hard_1", 0x30bcd9cb4b1141d0ULL},
      {"distmult_hard_2", 0x35bb5c003577ffbbULL},
      {"distmult_hard_3", 0x7c9a2b038c75754fULL},
      {"transe_plain_1", 0x177396081912040eULL},
      {"transe_plain_2", 0x108f851454a4e314ULL},
      {"transe_plain_3", 0xdaef946883445690ULL},
      {"transe_decay_1", 0x61811f7f651d45a7ULL},
      {"transe_decay_2", 0x02c85bc7f69855f0ULL},
      {"transe_decay_3", 0x0368cd1ba22092e7ULL},
      {"transe_hard_1", 0xacd7acd9cc1b11b0ULL},
      {"transe_hard_2", 0x23e803907a22ee6eULL},
      {"transe_hard_3", 0x2b7e2fcd84a183b2ULL},
      {"rotate_plain_1", 0x9b386529b0935b74ULL},
      {"rotate_plain_2", 0xbd4732fa780f1809ULL},
      {"rotate_plain_3", 0x05a94582aa81a6b3ULL},
      {"rotate_decay_1", 0x3bcb6b192c913e92ULL},
      {"rotate_decay_2", 0xcd3bf0620f89a7f9ULL},
      {"rotate_decay_3", 0x59e06d90d2be635eULL},
      {"rotate_hard_1", 0x0a5339529a181c3dULL},
      {"rotate_hard_2", 0x2b397cf42b6b3bb8ULL},
      {"rotate_hard_3", 0x800bbe97c9ac99ffULL},
  };
  return goldens;
}

struct RefreshCase {
  const char* model;
  const char* mode;
  int steps;
};

std::string refresh_case_name(const RefreshCase& c) {
  return std::string(c.model) + "_" + c.mode + "_" + std::to_string(c.steps);
}

class RefreshGolden : public ::testing::TestWithParam<RefreshCase> {};

TEST_P(RefreshGolden, MatchesCommittedDigest) {
  const RefreshCase& param = GetParam();
  const std::string name = refresh_case_name(param);
  const std::uint64_t digest =
      refresh_digest(param.model, param.mode, param.steps);
  const auto golden = refresh_goldens().find(name);
  ASSERT_NE(golden, refresh_goldens().end()) << name << ": no golden";
  EXPECT_EQ(digest, golden->second)
      << name << ": golden " << testing_util::hex64(golden->second)
      << ", got " << testing_util::hex64(digest);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsModesSteps, RefreshGolden,
    ::testing::ValuesIn([] {
      std::vector<RefreshCase> cases;
      for (const char* model : kGoldenModels) {
        for (const char* mode : kGoldenModes) {
          for (int steps = 1; steps <= 3; ++steps) {
            cases.push_back({model, mode, steps});
          }
        }
      }
      return cases;
    }()),
    [](const ::testing::TestParamInfo<RefreshCase>& info) {
      return refresh_case_name(info.param);
    });

class DeltaFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("dynkge_delta_" + std::to_string(::getpid()) + ".txt");
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_F(DeltaFileTest, ParsesSkipsAndCounts) {
  {
    std::ofstream out(path_);
    out << "# comment\n"
        << "\n"
        << "1 0 2\n"
        << "3 2 4\n"
        << "999 0 1\n"      // head out of range
        << "1 99 2\n"       // relation out of range
        << "not numbers\n"  // malformed
        << "5 1 6\n";
  }
  const DeltaFile file = load_delta_file(path_.string(), kEntities,
                                         kRelations);
  ASSERT_EQ(file.triples.size(), 3u);
  EXPECT_EQ(file.triples[0].head, 1);
  EXPECT_EQ(file.triples[1].relation, 2);
  EXPECT_EQ(file.triples[2].tail, 6);
  EXPECT_EQ(file.skipped, 3u);
  EXPECT_EQ(file.lines, 6u);
}

TEST_F(DeltaFileTest, MissingFileThrows) {
  EXPECT_THROW(load_delta_file(path_.string() + ".absent", kEntities,
                               kRelations),
               std::runtime_error);
}

TEST(DeltaIngestor, AutoFlushesAtBatchSizeAndTracksStats) {
  SnapshotStore store;
  store.init(std::shared_ptr<const kge::KgeModel>(make_base()));
  IngestConfig config;
  config.batch_size = 3;
  DeltaIngestor ingestor(store, config);

  EXPECT_TRUE(ingestor.submit({1, 0, 2}));
  EXPECT_TRUE(ingestor.submit({3, 1, 4}));
  EXPECT_EQ(store.current_version(), 1u);  // below threshold: nothing yet
  EXPECT_EQ(ingestor.pending(), 2u);
  EXPECT_TRUE(ingestor.submit({5, 2, 6}));  // third delta -> inline flush
  EXPECT_EQ(store.current_version(), 2u);
  EXPECT_EQ(ingestor.pending(), 0u);

  EXPECT_TRUE(ingestor.submit({7, 0, 8}));
  EXPECT_EQ(ingestor.flush(), 3u);  // partial batch flushes on demand
  EXPECT_EQ(ingestor.flush(), 0u);  // nothing pending

  const IngestStats stats = ingestor.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_GT(stats.touched_rows, 0u);
}

TEST(DeltaIngestor, ShedsBeyondMaxPending) {
  SnapshotStore store;
  store.init(std::shared_ptr<const kge::KgeModel>(make_base()));
  IngestConfig config;
  config.batch_size = 100;  // never auto-flush in this test
  config.max_pending = 2;
  DeltaIngestor ingestor(store, config);
  EXPECT_TRUE(ingestor.submit({1, 0, 2}));
  EXPECT_TRUE(ingestor.submit({3, 1, 4}));
  EXPECT_FALSE(ingestor.submit({5, 2, 6}));  // queue full -> shed
  EXPECT_EQ(ingestor.stats().shed, 1u);
  EXPECT_EQ(ingestor.stats().submitted, 2u);
}

TEST(DeltaIngestor, RejectsOutOfUniverseDeltas) {
  // An id past the entity table used to be queued and then overran the
  // table in incremental_refresh's base-row copy at flush time.
  SnapshotStore store;
  store.init(std::shared_ptr<const kge::KgeModel>(make_base()));
  IngestConfig config;
  config.batch_size = 100;  // never auto-flush in this test
  DeltaIngestor ingestor(store, config);
  ASSERT_TRUE(ingestor.submit({1, 0, 2}));

  for (const Triple& bad : {Triple{kEntities, 0, 1}, Triple{1, 0, -1},
                            Triple{1, kRelations, 2}}) {
    try {
      ingestor.submit(bad);
      FAIL() << "submit accepted an out-of-universe delta";
    } catch (const std::out_of_range& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("(" + std::to_string(bad.head) + ", " +
                             std::to_string(bad.relation) + ", " +
                             std::to_string(bad.tail) + ")"),
                std::string::npos)
          << message;
      EXPECT_NE(message.find(std::to_string(kEntities) + " entities"),
                std::string::npos)
          << message;
      EXPECT_NE(message.find(std::to_string(kRelations) + " relations"),
                std::string::npos)
          << message;
    }
    // A batch holding one bad delta queues none of its good ones.
    const TripleList batch = {{3, 1, 4}, bad, {5, 2, 6}};
    EXPECT_THROW(ingestor.submit_batch(batch), std::out_of_range);
    EXPECT_EQ(ingestor.pending(), 1u);
    EXPECT_EQ(ingestor.stats().submitted, 1u);
  }
  EXPECT_EQ(ingestor.stats().shed, 0u);
  EXPECT_EQ(ingestor.flush(), 2u);  // the one good delta still flushes
}

TEST(DeltaIngestor, RequiresInitializedStoreAndPositiveBatch) {
  SnapshotStore uninitialized;
  EXPECT_THROW(DeltaIngestor(uninitialized, {}), std::logic_error);
  SnapshotStore store;
  store.init(std::shared_ptr<const kge::KgeModel>(make_base()));
  IngestConfig bad;
  bad.batch_size = 0;
  EXPECT_THROW(DeltaIngestor(store, bad), std::invalid_argument);
}

// The end-to-end determinism contract from the ISSUE: the same delta
// stream applied to the same base version produces byte-identical
// snapshot bytes on every replay (same seed, same delta order).
TEST(DeltaIngestor, ReplayedStreamProducesByteIdenticalSnapshots) {
  const auto base = make_base();
  const auto run = [&](SnapshotStore& store) {
    store.init(kge::clone_model(*base));
    IngestConfig config;
    config.batch_size = 3;
    config.refresh.seed = 2024;
    DeltaIngestor ingestor(store, config);
    util::Rng rng(404);
    for (int i = 0; i < 10; ++i) {
      ingestor.submit(
          {static_cast<EntityId>(rng.next_below(kEntities)),
           static_cast<kge::RelationId>(rng.next_below(kRelations)),
           static_cast<EntityId>(rng.next_below(kEntities))});
    }
    ingestor.flush();
  };
  SnapshotStore first, second;
  run(first);
  run(second);
  ASSERT_EQ(first.current_version(), second.current_version());
  EXPECT_GT(first.current_version(), 1u);
  const auto fa = first.acquire()->entities().flat();
  const auto fb = second.acquire()->entities().flat();
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    ASSERT_EQ(fa[i], fb[i]) << "element " << i;
  }
}

// ---- recycled buffers against a reference chain ----------------------
//
// The ingestor refreshes a handed-back buffer in place when it can and a
// clone otherwise. Either way every version it publishes must equal the
// reference chain: a clone of the version before, refreshed by
// incremental_refresh with the same batch and version.

/// Entity then relation bytes of a model.
std::vector<float> model_bytes(const kge::KgeModel& model) {
  std::vector<float> bytes(model.entities().flat().begin(),
                           model.entities().flat().end());
  bytes.insert(bytes.end(), model.relations().flat().begin(),
               model.relations().flat().end());
  return bytes;
}

class ChainedIngest {
 public:
  ChainedIngest() : reference_(make_base()) {
    store_.init(kge::clone_model(*reference_));
    start_ingestor();
  }

  SnapshotStore& store() { return store_; }
  DeltaIngestor& ingestor() { return *ingestor_; }

  /// Ingest one batch of random deltas, advance the reference chain, and
  /// compare the published version with it.
  void flush_and_check() {
    TripleList batch;
    for (int i = 0; i < 6; ++i) {
      batch.push_back(
          {static_cast<EntityId>(rng_.next_below(kEntities)),
           static_cast<kge::RelationId>(rng_.next_below(kRelations)),
           static_cast<EntityId>(rng_.next_below(kEntities))});
    }
    ingestor_->submit_batch(batch);
    const std::uint64_t version = ingestor_->flush();
    ASSERT_EQ(version, store_.current_version());
    std::unique_ptr<kge::KgeModel> next = kge::clone_model(*reference_);
    incremental_refresh(*next, batch, version, config_.refresh);
    reference_ = std::move(next);
    expect_matches_reference(store_.acquire());
  }

  /// Another publisher replaces the current version.
  void publish_other(std::uint64_t seed) {
    std::unique_ptr<kge::KgeModel> other = make_base(seed);
    reference_ = kge::clone_model(*other);
    store_.publish(std::move(other));
  }

  void expect_matches_reference(const PinnedModel& pin) const {
    EXPECT_EQ(model_bytes(*pin), model_bytes(*reference_))
        << "version " << pin.version;
  }

  std::vector<float> reference_bytes() const {
    return model_bytes(*reference_);
  }

  void destroy_ingestor() { ingestor_.reset(); }
  void start_ingestor() {
    config_.batch_size = 1000;  // flushed by hand
    config_.refresh.seed = 31;
    ingestor_ = std::make_unique<DeltaIngestor>(store_, config_);
  }

 private:
  SnapshotStore store_;
  IngestConfig config_;
  std::unique_ptr<DeltaIngestor> ingestor_;
  std::unique_ptr<kge::KgeModel> reference_;
  util::Rng rng_{77};
};

TEST(DeltaIngestorRecycling, UnpinnedFlushesReuseTheDisplacedVersion) {
  ChainedIngest chain;
  for (int i = 0; i < 8; ++i) chain.flush_and_check();
  // Version 1 was not the ingestor's to take back, so the first two
  // flushes clone; each later one catches up the version it displaced.
  EXPECT_EQ(chain.ingestor().stats().full_copies, 2u);
  EXPECT_EQ(chain.ingestor().stats().batches, 8u);
}

TEST(DeltaIngestorRecycling, PinnedVersionIsNeitherWrittenNorReused) {
  ChainedIngest chain;
  for (int i = 0; i < 3; ++i) chain.flush_and_check();
  ASSERT_EQ(chain.ingestor().stats().full_copies, 2u);

  PinnedModel pinned = chain.store().acquire();  // version 4
  const std::vector<float> pinned_bytes = model_bytes(*pinned);
  chain.flush_and_check();  // reuses version 3; version 4 stays pinned
  EXPECT_EQ(chain.ingestor().stats().full_copies, 2u);
  chain.flush_and_check();  // version 4 is not back: clone
  EXPECT_EQ(chain.ingestor().stats().full_copies, 3u);
  EXPECT_EQ(model_bytes(*pinned), pinned_bytes);
  pinned = {};  // version 4 comes back after version 5: freed, not kept
  chain.flush_and_check();
  chain.flush_and_check();
  EXPECT_EQ(chain.ingestor().stats().full_copies, 3u);
}

TEST(DeltaIngestorRecycling, AnotherPublisherForcesFullCopies) {
  ChainedIngest chain;
  for (int i = 0; i < 3; ++i) chain.flush_and_check();
  ASSERT_EQ(chain.ingestor().stats().full_copies, 2u);

  chain.publish_other(/*seed=*/91);  // version 5 displaces the ingestor's 4
  chain.flush_and_check();  // current is not the ingestor's own: clone
  chain.flush_and_check();  // the other publisher's version is not back
  EXPECT_EQ(chain.ingestor().stats().full_copies, 4u);
  chain.flush_and_check();
  chain.flush_and_check();
  EXPECT_EQ(chain.ingestor().stats().full_copies, 4u);
}

TEST(DeltaIngestorRecycling, ConcurrentReadersNeverSeeTheirVersionChange) {
  // Readers drop their pins on their own threads, so displaced versions
  // come back from there, and a refresh in place must never write one a
  // reader still holds (TSan sees such a write too).
  ChainedIngest chain;
  std::atomic<bool> done{false};
  std::atomic<int> changed{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const PinnedModel pin = chain.store().acquire();
        const std::vector<float> first = model_bytes(*pin);
        std::this_thread::yield();
        if (model_bytes(*pin) != first) changed.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 30; ++i) chain.flush_and_check();
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(changed.load(), 0);
}

TEST(DeltaIngestorRecycling, VersionsOutliveTheIngestor) {
  ChainedIngest chain;
  for (int i = 0; i < 4; ++i) chain.flush_and_check();
  chain.destroy_ingestor();

  // The store still holds the ingestor's last version; displacing it, and
  // then dropping the last pin on it, frees it.
  PinnedModel held = chain.store().acquire();
  chain.expect_matches_reference(held);
  const std::vector<float> held_bytes = chain.reference_bytes();
  chain.publish_other(/*seed=*/92);
  EXPECT_EQ(model_bytes(*held), held_bytes);
  held = {};

  chain.start_ingestor();
  for (int i = 0; i < 4; ++i) chain.flush_and_check();
  EXPECT_EQ(chain.ingestor().stats().full_copies, 2u);
}

}  // namespace
}  // namespace dynkge::stream
