// Property-based tests for the training-snapshot format ("DKGS" v3):
// random snapshots must round-trip byte-exactly, and corrupted inputs —
// truncations, bit flips, tag tampering, version skew — must fail loudly
// with an error naming the file and what was expected, never read garbage.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "kge/model_factory.hpp"
#include "kge/serialize.hpp"
#include "util/fnv1a.hpp"
#include "util/rng.hpp"

namespace dynkge::kge {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dynkge_snapshot_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return data;
}

void write_file(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

/// Recompute the trailing FNV-1a so tampered payload bytes survive the
/// checksum gate and exercise the section-level parse errors.
void reseal(std::string& file) {
  const std::uint64_t hash = util::fnv1a(file.data(), file.size() - 8);
  std::memcpy(file.data() + file.size() - 8, &hash, 8);
}

void fill_random(EmbeddingMatrix& matrix, util::Rng& rng) {
  for (float& v : matrix.flat()) {
    v = static_cast<float>(rng.next_double(-2.0, 2.0));
  }
}

/// A structurally valid snapshot with every field randomized.
TrainingSnapshot random_snapshot(std::uint64_t seed) {
  util::Rng rng(seed);
  static const char* kNames[] = {"complex", "distmult", "transe", "rotate"};
  const std::string name = kNames[rng.next_below(4)];
  const auto entities = static_cast<std::int32_t>(4 + rng.next_below(40));
  const auto relations = static_cast<std::int32_t>(2 + rng.next_below(12));
  const auto rank = static_cast<std::int32_t>(2 + rng.next_below(8));
  const int num_ranks = static_cast<int>(1 + rng.next_below(4));

  TrainingSnapshot snap;
  snap.model = make_model(name, entities, relations, rank);
  snap.model->init(rng);

  for (OptimizerSnapshot* opt : {&snap.entity_opt, &snap.relation_opt}) {
    const auto rows = opt == &snap.entity_opt ? entities : relations;
    const auto width = opt == &snap.entity_opt
                           ? snap.model->entities().width()
                           : snap.model->relations().width();
    opt->step = static_cast<std::int64_t>(rng.next_below(100000));
    opt->m = EmbeddingMatrix(rows, width);
    opt->v = EmbeddingMatrix(rows, width);
    fill_random(opt->m, rng);
    fill_random(opt->v, rng);
  }

  snap.trainer.next_epoch = static_cast<std::int32_t>(rng.next_below(500));
  snap.trainer.num_nodes = num_ranks;
  snap.trainer.seed = rng.next_u64();
  snap.trainer.model_name = name;
  snap.trainer.embedding_rank = rank;
  snap.trainer.strategy = "drs+1bit";
  snap.trainer.total_sim_seconds = rng.next_double(0.0, 1e4);
  snap.trainer.final_val_accuracy = rng.next_double(0.0, 100.0);
  snap.trainer.checkpoints_written = static_cast<std::int32_t>(
      rng.next_below(50));

  snap.scheduler.lr = rng.next_double(1e-5, 0.1);
  snap.scheduler.best_metric = rng.next_double(0.0, 100.0);
  snap.scheduler.stale_epochs = static_cast<std::int32_t>(rng.next_below(20));
  snap.scheduler.stopped = rng.next_bernoulli(0.3);

  snap.comm_selector.switched = rng.next_bernoulli(0.5);
  snap.comm_selector.last_allreduce_time = rng.next_double(0.0, 10.0);
  snap.comm_selector.epochs_recorded =
      static_cast<std::int32_t>(rng.next_below(200));
  snap.comm_selector.allreduce_epochs =
      static_cast<std::int32_t>(rng.next_below(200));

  for (int r = 0; r < num_ranks; ++r) {
    snap.rank_rng_seeds.push_back(rng.next_u64());
    std::string blob;
    const std::size_t blob_size = rng.next_below(256);
    blob.reserve(blob_size);
    for (std::size_t i = 0; i < blob_size; ++i) {
      blob.push_back(static_cast<char>(rng.next_below(256)));
    }
    snap.rank_residuals.push_back(std::move(blob));
  }
  return snap;
}

void expect_equal(const TrainingSnapshot& a, const TrainingSnapshot& b) {
  ASSERT_NE(b.model, nullptr);
  ASSERT_EQ(a.model->name(), b.model->name());
  const auto ae = a.model->entities().flat();
  const auto be = b.model->entities().flat();
  ASSERT_EQ(ae.size(), be.size());
  EXPECT_EQ(0, std::memcmp(ae.data(), be.data(), ae.size_bytes()));
  const auto ar = a.model->relations().flat();
  const auto br = b.model->relations().flat();
  ASSERT_EQ(ar.size(), br.size());
  EXPECT_EQ(0, std::memcmp(ar.data(), br.data(), ar.size_bytes()));

  EXPECT_EQ(a.entity_opt.step, b.entity_opt.step);
  EXPECT_EQ(0, std::memcmp(a.entity_opt.m.flat().data(),
                           b.entity_opt.m.flat().data(),
                           a.entity_opt.m.flat().size_bytes()));
  EXPECT_EQ(0, std::memcmp(a.entity_opt.v.flat().data(),
                           b.entity_opt.v.flat().data(),
                           a.entity_opt.v.flat().size_bytes()));
  EXPECT_EQ(a.relation_opt.step, b.relation_opt.step);
  EXPECT_EQ(0, std::memcmp(a.relation_opt.m.flat().data(),
                           b.relation_opt.m.flat().data(),
                           a.relation_opt.m.flat().size_bytes()));
  EXPECT_EQ(0, std::memcmp(a.relation_opt.v.flat().data(),
                           b.relation_opt.v.flat().data(),
                           a.relation_opt.v.flat().size_bytes()));

  EXPECT_EQ(a.trainer.next_epoch, b.trainer.next_epoch);
  EXPECT_EQ(a.trainer.num_nodes, b.trainer.num_nodes);
  EXPECT_EQ(a.trainer.seed, b.trainer.seed);
  EXPECT_EQ(a.trainer.model_name, b.trainer.model_name);
  EXPECT_EQ(a.trainer.embedding_rank, b.trainer.embedding_rank);
  EXPECT_EQ(a.trainer.strategy, b.trainer.strategy);
  EXPECT_DOUBLE_EQ(a.trainer.total_sim_seconds, b.trainer.total_sim_seconds);
  EXPECT_DOUBLE_EQ(a.trainer.final_val_accuracy,
                   b.trainer.final_val_accuracy);
  EXPECT_EQ(a.trainer.checkpoints_written, b.trainer.checkpoints_written);

  EXPECT_DOUBLE_EQ(a.scheduler.lr, b.scheduler.lr);
  EXPECT_DOUBLE_EQ(a.scheduler.best_metric, b.scheduler.best_metric);
  EXPECT_EQ(a.scheduler.stale_epochs, b.scheduler.stale_epochs);
  EXPECT_EQ(a.scheduler.stopped, b.scheduler.stopped);

  EXPECT_EQ(a.comm_selector.switched, b.comm_selector.switched);
  EXPECT_DOUBLE_EQ(a.comm_selector.last_allreduce_time,
                   b.comm_selector.last_allreduce_time);
  EXPECT_EQ(a.comm_selector.epochs_recorded,
            b.comm_selector.epochs_recorded);
  EXPECT_EQ(a.comm_selector.allreduce_epochs,
            b.comm_selector.allreduce_epochs);

  EXPECT_EQ(a.rank_rng_seeds, b.rank_rng_seeds);
  EXPECT_EQ(a.rank_residuals, b.rank_residuals);
}

TEST_F(SnapshotTest, RandomSnapshotsRoundTrip) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const TrainingSnapshot snap = random_snapshot(seed);
    std::string name = "s";
    name += std::to_string(seed) + ".dkgs";
    const std::string file = path(name);
    save_snapshot(snap, file);
    const TrainingSnapshot loaded = load_snapshot(file);
    expect_equal(snap, loaded);
  }
}

TEST_F(SnapshotTest, SaveIsByteDeterministic) {
  const TrainingSnapshot snap = random_snapshot(77);
  save_snapshot(snap, path("x.dkgs"));
  save_snapshot(snap, path("y.dkgs"));
  EXPECT_EQ(read_file(path("x.dkgs")), read_file(path("y.dkgs")));
}

TEST_F(SnapshotTest, InMemoryCodecMatchesTheFileCodecByteForByte) {
  // serialize/deserialize (the elastic-recovery path) must be the exact
  // codec save/load use — same sealed bytes, same state back.
  const TrainingSnapshot snap = random_snapshot(31);
  const std::string sealed = serialize_snapshot(snap);
  save_snapshot(snap, path("disk.dkgs"));
  EXPECT_EQ(sealed, read_file(path("disk.dkgs")));

  const TrainingSnapshot decoded =
      deserialize_snapshot(sealed, "in-memory snapshot");
  expect_equal(snap, decoded);

  write_snapshot_bytes(sealed, path("bytes.dkgs"));
  EXPECT_EQ(read_file(path("bytes.dkgs")), sealed);
}

TEST_F(SnapshotTest, DeserializeNamesTheSourceOnCorruption) {
  std::string sealed = serialize_snapshot(random_snapshot(32));
  sealed[sealed.size() / 2] ^= 0x01;
  try {
    deserialize_snapshot(sealed, "elastic recovery snapshot");
    FAIL() << "corrupted bytes accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("elastic recovery snapshot"),
              std::string::npos)
        << error.what();
  }
}

TEST_F(SnapshotTest, TruncationAtAnyPointFailsLoudly) {
  const TrainingSnapshot snap = random_snapshot(3);
  save_snapshot(snap, path("t.dkgs"));
  const std::string full = read_file(path("t.dkgs"));
  util::Rng rng(11);
  for (int i = 0; i < 24; ++i) {
    const std::size_t cut = rng.next_below(full.size());
    write_file(path("cut.dkgs"), full.substr(0, cut));
    EXPECT_THROW(load_snapshot(path("cut.dkgs")), std::runtime_error)
        << "truncation at byte " << cut << " was accepted";
  }
  // The empty file too.
  write_file(path("cut.dkgs"), "");
  EXPECT_THROW(load_snapshot(path("cut.dkgs")), std::runtime_error);
}

TEST_F(SnapshotTest, BitFlipsAnywhereFailLoudly) {
  const TrainingSnapshot snap = random_snapshot(5);
  save_snapshot(snap, path("b.dkgs"));
  const std::string full = read_file(path("b.dkgs"));
  util::Rng rng(13);
  for (int i = 0; i < 48; ++i) {
    std::string corrupt = full;
    const std::size_t byte = rng.next_below(corrupt.size());
    corrupt[byte] = static_cast<char>(
        static_cast<unsigned char>(corrupt[byte]) ^
        (1u << rng.next_below(8)));
    write_file(path("flip.dkgs"), corrupt);
    EXPECT_THROW(load_snapshot(path("flip.dkgs")), std::runtime_error)
        << "bit flip in byte " << byte << " was accepted";
  }
}

TEST_F(SnapshotTest, VersionMismatchNamesExpectedAndFound) {
  const TrainingSnapshot snap = random_snapshot(9);
  save_snapshot(snap, path("v.dkgs"));
  std::string file = read_file(path("v.dkgs"));
  file[4] = 9;  // version field (u32 little-endian after the magic)
  write_file(path("v.dkgs"), file);
  try {
    load_snapshot(path("v.dkgs"));
    FAIL() << "wrong version was accepted";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("expected 3"), std::string::npos) << what;
    EXPECT_NE(what.find("found 9"), std::string::npos) << what;
    EXPECT_NE(what.find("v.dkgs"), std::string::npos) << what;
  }
}

TEST_F(SnapshotTest, WrongMagicNamesBothMagics) {
  const TrainingSnapshot snap = random_snapshot(15);
  save_snapshot(snap, path("m.dkgs"));
  // A snapshot is not a model file and vice versa.
  try {
    load_model(path("m.dkgs"));
    FAIL() << "load_model accepted a snapshot file";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("DKGE"), std::string::npos) << what;
    EXPECT_NE(what.find("DKGS"), std::string::npos) << what;
  }
}

TEST_F(SnapshotTest, TamperedSectionTagNamesTheSection) {
  const TrainingSnapshot snap = random_snapshot(21);
  save_snapshot(snap, path("tag.dkgs"));
  std::string file = read_file(path("tag.dkgs"));
  // First section tag sits right after magic + version; reseal so the
  // checksum gate passes and the section parser sees the bad tag.
  std::memcpy(file.data() + 8, "XXXX", 4);
  reseal(file);
  write_file(path("tag.dkgs"), file);
  try {
    load_snapshot(path("tag.dkgs"));
    FAIL() << "tampered section tag was accepted";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("MODL"), std::string::npos) << what;
    EXPECT_NE(what.find("XXXX"), std::string::npos) << what;
  }
}

TEST_F(SnapshotTest, ModelFileVersionErrorNamesExpectedAndFound) {
  const TrainingSnapshot snap = random_snapshot(25);
  save_model(*snap.model, path("m.dkge"));
  std::string file = read_file(path("m.dkge"));
  file[4] = 7;
  write_file(path("m.dkge"), file);
  try {
    load_model(path("m.dkge"));
    FAIL() << "wrong model version was accepted";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("expected 1"), std::string::npos) << what;
    EXPECT_NE(what.find("found 7"), std::string::npos) << what;
  }
}

TEST_F(SnapshotTest, MissingFileNamesThePath) {
  try {
    load_snapshot(path("absent.dkgs"));
    FAIL() << "missing snapshot was accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("absent.dkgs"),
              std::string::npos);
  }
}

TEST_F(SnapshotTest, SaveRejectsInconsistentRankSections) {
  TrainingSnapshot snap = random_snapshot(31);
  snap.rank_residuals.pop_back();
  snap.rank_rng_seeds.push_back(1);  // now definitely mismatched
  EXPECT_THROW(save_snapshot(snap, path("bad.dkgs")), std::runtime_error);
}

TEST_F(SnapshotTest, AtomicWriteLeavesNoTornFile) {
  // Write A, then overwrite with B: the rename is atomic, so a reader at
  // any point sees a complete snapshot. Also the temp file of a normal
  // write must not linger.
  const TrainingSnapshot a = random_snapshot(41);
  const TrainingSnapshot b = random_snapshot(42);
  save_snapshot(a, path("w.dkgs"));
  save_snapshot(b, path("w.dkgs"));
  const TrainingSnapshot loaded = load_snapshot(path("w.dkgs"));
  expect_equal(b, loaded);
  EXPECT_FALSE(std::filesystem::exists(path("w.dkgs.tmp")));
}

// ---- residual blobs (the RESD section payload) --------------------------

/// One residual map's bytes: a u32 row count, then (i32 id, u32 width,
/// values) per row, in the order given.
std::string residual_map_bytes(
    const std::vector<std::pair<std::int32_t, std::vector<float>>>& rows) {
  std::string blob;
  const auto put = [&](const auto& value) {
    blob.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  put(static_cast<std::uint32_t>(rows.size()));
  for (const auto& [id, values] : rows) {
    put(id);
    put(static_cast<std::uint32_t>(values.size()));
    blob.append(reinterpret_cast<const char*>(values.data()),
                values.size() * sizeof(float));
  }
  return blob;
}

/// Four stores over a 50 x 4 entity and a 6 x 2 relation matrix, five
/// random rows each except the empty second, as a trainer packs them.
struct FourStores {
  EmbeddingMatrix entities{50, 4};
  EmbeddingMatrix relations{6, 2};
  std::array<SparseGrad, 4> stores{SparseGrad(4), SparseGrad(2),
                                   SparseGrad(4), SparseGrad(2)};

  FourStores() {
    util::Rng rng(3);
    for (std::size_t m = 0; m < stores.size(); ++m) {
      if (m == 1) continue;  // an empty store round-trips too
      for (int r = 0; r < 5; ++r) {
        const auto rows = static_cast<std::uint64_t>(matrix(m).rows());
        for (float& v : stores[m].accumulate(
                 static_cast<std::int32_t>(rng.next_below(rows)))) {
          v = rng.next_float() - 0.5f;
        }
      }
    }
  }

  const EmbeddingMatrix& matrix(std::size_t m) const {
    return m % 2 == 0 ? entities : relations;
  }
  std::string encode() const {
    return encode_residual_maps(
        {&stores[0], &stores[1], &stores[2], &stores[3]});
  }
  std::vector<SparseGrad> decode(const std::string& blob) const {
    return decode_residual_maps(
        blob, {&entities, &relations, &entities, &relations});
  }
};

/// Each row's id and bytes, in the store's ascending walk.
std::vector<std::pair<std::int32_t, std::vector<float>>> rows_of(
    const SparseGrad& store) {
  std::vector<std::pair<std::int32_t, std::vector<float>>> rows;
  for (const SparseGrad::SlotRef& slot : store.sorted_slots()) {
    const auto row = store.row_at(slot.offset);
    rows.emplace_back(slot.id, std::vector<float>(row.begin(), row.end()));
  }
  return rows;
}

TEST(ResidualBlob, FourMapsRoundTrip) {
  const FourStores four;
  const std::string blob = four.encode();
  const std::vector<SparseGrad> decoded = four.decode(blob);
  ASSERT_EQ(decoded.size(), four.stores.size());
  for (std::size_t m = 0; m < four.stores.size(); ++m) {
    EXPECT_EQ(decoded[m].width(), four.stores[m].width()) << "store " << m;
    EXPECT_EQ(rows_of(decoded[m]), rows_of(four.stores[m])) << "store " << m;
  }
  // Decoded stores re-encode to the same bytes.
  EXPECT_EQ(encode_residual_maps(
                {&decoded[0], &decoded[1], &decoded[2], &decoded[3]}),
            blob);
}

/// Decoding `blob` as two maps over a 10 x 2 matrix must throw an error
/// that names the RESD section and contains `what`.
void expect_rejected(const std::string& blob, const std::string& what) {
  const EmbeddingMatrix matrix(10, 2);
  try {
    decode_residual_maps(blob, {&matrix, &matrix});
    FAIL() << "accepted a blob that should fail with: " << what;
  } catch (const std::runtime_error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("RESD"), std::string::npos) << message;
    EXPECT_NE(message.find(what), std::string::npos) << message;
  }
}

TEST(ResidualBlob, RejectsIdNotGreaterThanThePrevious) {
  expect_rejected(residual_map_bytes({}) +
                      residual_map_bytes({{7, {1, 2}}, {7, {3, 4}}}),
                  "map 1: row id 7 is not greater than the previous id 7");
  expect_rejected(residual_map_bytes({{5, {1, 2}}, {3, {3, 4}}}) +
                      residual_map_bytes({}),
                  "map 0: row id 3 is not greater than the previous id 5");
}

TEST(ResidualBlob, RejectsIdOutsideTheMatrix) {
  expect_rejected(residual_map_bytes({{-3, {1, 2}}}) + residual_map_bytes({}),
                  "row id -3 outside [0, 10)");
  expect_rejected(residual_map_bytes({}) + residual_map_bytes({{10, {1, 2}}}),
                  "row id 10 outside [0, 10)");
}

TEST(ResidualBlob, RejectsWidthOtherThanTheMatrix) {
  // A narrower row would be read past its end when folded into a
  // gradient row of the matrix's width.
  expect_rejected(residual_map_bytes({{4, {1}}}) + residual_map_bytes({}),
                  "row 4 has width 1, the matrix 2");
  expect_rejected(residual_map_bytes({}) + residual_map_bytes({{4, {1, 2, 3}}}),
                  "row 4 has width 3, the matrix 2");
}

/// Decoding `blob` over FourStores' matrices either yields stores whose
/// ids ascend within [0, rows) at the matrix's width, or throws a
/// std::runtime_error naming the RESD section (any other exception fails
/// the test). Returns whether the blob decoded.
bool decodes_or_names_resd(const FourStores& four, const std::string& blob,
                           const std::string& what) {
  std::vector<SparseGrad> decoded;
  try {
    decoded = four.decode(blob);
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("RESD"), std::string::npos)
        << what << ": " << error.what();
    return false;
  }
  EXPECT_EQ(decoded.size(), four.stores.size()) << what;
  for (std::size_t m = 0; m < decoded.size(); ++m) {
    const EmbeddingMatrix& matrix = four.matrix(m);
    EXPECT_EQ(decoded[m].width(), matrix.width()) << what << ", store " << m;
    std::int32_t previous = -1;
    for (const SparseGrad::SlotRef& slot : decoded[m].sorted_slots()) {
      EXPECT_GT(slot.id, previous) << what << ", store " << m;
      EXPECT_LT(slot.id, matrix.rows()) << what << ", store " << m;
      previous = slot.id;
    }
  }
  return true;
}

TEST(ResidualBlob, MutationFuzzDecodesOrNamesResd) {
  // The decoder writes straight into arena rows, so every mutation of a
  // valid blob must decode to well-formed stores or be rejected by name.
  const FourStores four;
  const std::string valid = four.encode();
  ASSERT_TRUE(decodes_or_names_resd(four, valid, "the valid blob"));
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  const auto check = [&](const std::string& blob, const std::string& what) {
    if (decodes_or_names_resd(four, blob, what)) {
      ++accepted;
    } else {
      ++rejected;
    }
  };

  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    check(valid.substr(0, cut), "truncated to " + std::to_string(cut));
  }
  for (std::size_t byte = 0; byte < valid.size(); ++byte) {
    std::string blob = valid;
    blob[byte] = static_cast<char>(blob[byte] ^ 0xFF);
    check(blob, "byte " + std::to_string(byte) + " xor 0xFF");
  }
  util::Rng rng(0x4E5Du);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string blob = valid;
    const std::size_t at = rng.next_below(blob.size());
    const std::size_t length =
        1 + rng.next_below(std::min<std::size_t>(8, blob.size() - at));
    for (std::size_t i = at; i < at + length; ++i) {
      blob[i] = static_cast<char>(rng.next_below(256));
    }
    check(blob, "overwrite of " + std::to_string(length) + " bytes at " +
                    std::to_string(at) + " (trial " +
                    std::to_string(trial) + ")");
  }

  // Every row count and row width field, set to 0 and to UINT32_MAX.
  std::vector<std::size_t> fields;
  std::size_t pos = 0;
  for (const SparseGrad& store : four.stores) {
    fields.push_back(pos);
    pos += sizeof(std::uint32_t);
    for (std::size_t r = 0; r < store.num_rows(); ++r) {
      fields.push_back(pos + sizeof(std::int32_t));
      pos += sizeof(std::int32_t) + sizeof(std::uint32_t) +
             static_cast<std::size_t>(store.width()) * sizeof(float);
    }
  }
  ASSERT_EQ(pos, valid.size());
  for (const std::size_t field : fields) {
    for (const std::uint32_t value : {0u, UINT32_MAX}) {
      std::string blob = valid;
      std::memcpy(blob.data() + field, &value, sizeof(value));
      check(blob, "field at " + std::to_string(field) + " set to " +
                      std::to_string(value));
    }
  }
  // Both outcomes occur, so the property is tested on each side.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace dynkge::kge
