#include "kge/serialize.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "kge/complex_model.hpp"
#include "kge/distmult_model.hpp"
#include "kge/model_factory.hpp"
#include "kge/transe_model.hpp"

namespace dynkge::kge {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dynkge_serialize_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(SerializeTest, ComplExRoundTrip) {
  ComplExModel model(17, 5, 6);
  util::Rng rng(3);
  model.init(rng);
  save_model(model, path("m.dkge"));
  const auto loaded = load_model(path("m.dkge"));
  ASSERT_EQ(loaded->name(), "ComplEx");
  EXPECT_EQ(loaded->num_entities(), 17);
  EXPECT_EQ(loaded->num_relations(), 5);
  // Bit-exact parameters -> identical scores.
  for (EntityId h = 0; h < 17; ++h) {
    EXPECT_DOUBLE_EQ(loaded->score(h, h % 5, (h + 3) % 17),
                     model.score(h, h % 5, (h + 3) % 17));
  }
}

TEST_F(SerializeTest, DistMultRoundTrip) {
  DistMultModel model(9, 4, 8);
  util::Rng rng(5);
  model.init(rng);
  save_model(model, path("dm.dkge"));
  const auto loaded = load_model(path("dm.dkge"));
  EXPECT_EQ(loaded->name(), "DistMult");
  EXPECT_DOUBLE_EQ(loaded->score(1, 2, 3), model.score(1, 2, 3));
}

TEST_F(SerializeTest, TransEKeepsGamma) {
  TransEModel model(9, 4, 8, /*gamma=*/7.5f);
  util::Rng rng(5);
  model.init(rng);
  save_model(model, path("te.dkge"));
  const auto loaded = load_model(path("te.dkge"));
  ASSERT_EQ(loaded->name(), "TransE");
  const auto* transe = dynamic_cast<const TransEModel*>(loaded.get());
  ASSERT_NE(transe, nullptr);
  EXPECT_FLOAT_EQ(transe->spec().margin, 7.5f);
  EXPECT_DOUBLE_EQ(loaded->score(0, 1, 2), model.score(0, 1, 2));
}

// TransE and RotatE carry a margin (gamma) besides their rank: a loaded
// file and a clone must both keep a non-default one.
TEST_F(SerializeTest, MarginModelsKeepGamma) {
  for (const std::string name : {"transe", "rotate"}) {
    SCOPED_TRACE(name);
    const auto model = make_model(name, 9, 4, 8, /*margin=*/7.5f);
    util::Rng rng(5);
    model->init(rng);
    save_model(*model, path(name + ".dkge"));
    const auto loaded = load_model(path(name + ".dkge"));
    const auto clone = clone_model(*model);
    for (const KgeModel* copy : {loaded.get(), clone.get()}) {
      EXPECT_EQ(copy->name(), model->name());
      EXPECT_EQ(copy->spec().name, name);
      EXPECT_EQ(copy->spec().rank, 8);
      EXPECT_FLOAT_EQ(copy->spec().margin, 7.5f);
      EXPECT_DOUBLE_EQ(copy->score(0, 1, 2), model->score(0, 1, 2));
    }
  }
}

TEST_F(SerializeTest, MissingFileThrows) {
  EXPECT_THROW(load_model(path("absent.dkge")), std::runtime_error);
}

TEST_F(SerializeTest, BadMagicThrows) {
  std::ofstream out(path("junk.dkge"), std::ios::binary);
  out << "NOPEnope this is not a model file";
  out.close();
  EXPECT_THROW(load_model(path("junk.dkge")), std::runtime_error);
}

TEST_F(SerializeTest, TruncationThrows) {
  ComplExModel model(8, 3, 4);
  util::Rng rng(1);
  model.init(rng);
  save_model(model, path("full.dkge"));
  // Copy all but the last 16 bytes.
  std::ifstream in(path("full.dkge"), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::ofstream out(path("cut.dkge"), std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 16));
  out.close();
  EXPECT_THROW(load_model(path("cut.dkge")), std::runtime_error);
}

TEST_F(SerializeTest, CorruptionFailsChecksum) {
  ComplExModel model(8, 3, 4);
  util::Rng rng(1);
  model.init(rng);
  save_model(model, path("ok.dkge"));
  std::ifstream in(path("ok.dkge"), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  bytes[bytes.size() / 2] ^= 0x40;  // flip a payload bit
  std::ofstream out(path("bad.dkge"), std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  EXPECT_THROW(load_model(path("bad.dkge")), std::runtime_error);
}

TEST_F(SerializeTest, OverwriteIsClean) {
  ComplExModel small(4, 2, 2);
  util::Rng rng(1);
  small.init(rng);
  ComplExModel big(50, 9, 16);
  big.init(rng);
  save_model(big, path("m.dkge"));
  save_model(small, path("m.dkge"));  // overwrite larger with smaller
  const auto loaded = load_model(path("m.dkge"));
  EXPECT_EQ(loaded->num_entities(), 4);
}

TEST_F(SerializeTest, FactoryModelsRoundTrip) {
  for (const char* name : {"complex", "distmult", "transe", "rotate"}) {
    auto model = make_model(name, 12, 3, 5);
    util::Rng rng(9);
    model->init(rng);
    const std::string file = path(std::string(name) + ".dkge");
    save_model(*model, file);
    const auto loaded = load_model(file);
    EXPECT_DOUBLE_EQ(loaded->score(2, 1, 7), model->score(2, 1, 7)) << name;
  }
}

}  // namespace
}  // namespace dynkge::kge
