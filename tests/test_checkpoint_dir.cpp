// Checkpoint-directory policies (kge/checkpoint_dir.hpp): newest-first
// candidate enumeration, fault-tolerant resume that falls back past
// corrupt snapshots (and fails loudly naming every candidate when all are
// damaged), retention that never deletes the last known-good snapshot,
// and the disk-fault write hooks (ENOSPC / EIO / short writes) behind
// --checkpoint-on-error.
#include "kge/checkpoint_dir.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "kge/model_factory.hpp"
#include "kge/serialize.hpp"
#include "util/rng.hpp"

namespace dynkge::kge {
namespace {

class CheckpointDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dynkge_ckptdir_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    set_write_syscall_hook_for_testing(nullptr);
    std::filesystem::remove_all(dir_);
  }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

/// A minimal structurally-valid snapshot; `next_epoch` tags which file a
/// scan ended up loading.
TrainingSnapshot tiny_snapshot(std::int32_t next_epoch) {
  util::Rng rng(7);
  TrainingSnapshot snap;
  snap.model = make_model("distmult", 6, 2, 4);
  snap.model->init(rng);
  for (OptimizerSnapshot* opt : {&snap.entity_opt, &snap.relation_opt}) {
    const auto rows = opt == &snap.entity_opt ? 6 : 2;
    const auto width = opt == &snap.entity_opt
                           ? snap.model->entities().width()
                           : snap.model->relations().width();
    opt->m = EmbeddingMatrix(rows, width);
    opt->v = EmbeddingMatrix(rows, width);
  }
  snap.trainer.next_epoch = next_epoch;
  snap.trainer.model_name = "distmult";
  snap.trainer.embedding_rank = 4;
  snap.trainer.strategy = "full";
  snap.rank_rng_seeds = {1};
  snap.rank_residuals = {""};
  return snap;
}

void corrupt_file(const std::string& path) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(24);
  const char garbage[4] = {'X', 'X', 'X', 'X'};
  file.write(garbage, 4);
}

TEST_F(CheckpointDirTest, CandidatesAreNewestFirstAndStrictlyMatched) {
  save_snapshot(tiny_snapshot(1), path("snapshot-e0.dkgs"));
  save_snapshot(tiny_snapshot(11), path("snapshot-e10.dkgs"));
  save_snapshot(tiny_snapshot(3), path("snapshot-e2.dkgs"));
  save_snapshot(tiny_snapshot(12), path("snapshot.dkgs"));
  // Stray files must never join the resume order.
  std::ofstream(path("snapshot-ex.dkgs")) << "not a snapshot";
  std::ofstream(path("notes.txt")) << "hello";

  const auto candidates = list_snapshot_candidates(dir_.string());
  ASSERT_EQ(candidates.size(), 4u);
  EXPECT_EQ(candidates[0], path("snapshot.dkgs"));
  EXPECT_EQ(candidates[1], path("snapshot-e10.dkgs"));
  EXPECT_EQ(candidates[2], path("snapshot-e2.dkgs"));
  EXPECT_EQ(candidates[3], path("snapshot-e0.dkgs"));
}

TEST_F(CheckpointDirTest, EmptyDirectoryIsACleanColdStart) {
  const ResumeScan scan = load_newest_valid_snapshot(dir_.string());
  EXPECT_FALSE(scan.found);
  EXPECT_TRUE(scan.rejected.empty());
}

TEST_F(CheckpointDirTest, CorruptNewestFallsBackToOlderValidSnapshot) {
  save_snapshot(tiny_snapshot(2), path("snapshot-e1.dkgs"));
  save_snapshot(tiny_snapshot(4), path("snapshot-e3.dkgs"));
  save_snapshot(tiny_snapshot(5), path("snapshot.dkgs"));
  corrupt_file(path("snapshot.dkgs"));
  corrupt_file(path("snapshot-e3.dkgs"));

  const ResumeScan scan = load_newest_valid_snapshot(dir_.string());
  ASSERT_TRUE(scan.found);
  EXPECT_EQ(scan.path, path("snapshot-e1.dkgs"));
  EXPECT_EQ(scan.snapshot.trainer.next_epoch, 2);
  // Both newer, corrupt candidates are reported with the loader's error.
  ASSERT_EQ(scan.rejected.size(), 2u);
  EXPECT_EQ(scan.rejected[0].path, path("snapshot.dkgs"));
  EXPECT_EQ(scan.rejected[1].path, path("snapshot-e3.dkgs"));
  for (const RejectedSnapshot& r : scan.rejected) {
    EXPECT_FALSE(r.error.empty());
  }
}

TEST_F(CheckpointDirTest, AllCandidatesCorruptFailsLoudlyNamingEveryOne) {
  save_snapshot(tiny_snapshot(1), path("snapshot-e0.dkgs"));
  save_snapshot(tiny_snapshot(2), path("snapshot.dkgs"));
  corrupt_file(path("snapshot-e0.dkgs"));
  corrupt_file(path("snapshot.dkgs"));

  try {
    load_newest_valid_snapshot(dir_.string());
    FAIL() << "all-corrupt directory did not fail";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(path("snapshot.dkgs")), std::string::npos) << what;
    EXPECT_NE(what.find(path("snapshot-e0.dkgs")), std::string::npos)
        << what;
    EXPECT_NE(what.find("every candidate failed"), std::string::npos);
  }
}

TEST_F(CheckpointDirTest, PruneKeepsBudgetNewestAndProtected) {
  for (int e = 0; e < 5; ++e) {
    save_snapshot(tiny_snapshot(e + 1),
                  path("snapshot-e" + std::to_string(e) + ".dkgs"));
  }
  save_snapshot(tiny_snapshot(6), path("snapshot.dkgs"));

  // keep=3 = primary + 2 history slots; the protected e0 survives despite
  // its age and consumes one of them, so only the newest other copy stays.
  prune_snapshots(dir_.string(), 3, path("snapshot-e0.dkgs"));

  EXPECT_TRUE(std::filesystem::exists(path("snapshot.dkgs")));
  EXPECT_TRUE(std::filesystem::exists(path("snapshot-e0.dkgs")));  // protect
  EXPECT_TRUE(std::filesystem::exists(path("snapshot-e4.dkgs")));
  EXPECT_FALSE(std::filesystem::exists(path("snapshot-e1.dkgs")));
  EXPECT_FALSE(std::filesystem::exists(path("snapshot-e2.dkgs")));
  EXPECT_FALSE(std::filesystem::exists(path("snapshot-e3.dkgs")));

  // Without a protect target keep=2 leaves the primary + the newest copy.
  prune_snapshots(dir_.string(), 2);
  EXPECT_TRUE(std::filesystem::exists(path("snapshot.dkgs")));
  EXPECT_TRUE(std::filesystem::exists(path("snapshot-e4.dkgs")));
  EXPECT_FALSE(std::filesystem::exists(path("snapshot-e0.dkgs")));
}

TEST_F(CheckpointDirTest, PruneRejectsBadKeepNamingFlag) {
  try {
    prune_snapshots(dir_.string(), 0);
    FAIL() << "keep=0 was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("--checkpoint-keep"),
              std::string::npos);
  }
}

// ---- disk-fault write hooks ------------------------------------------

TEST_F(CheckpointDirTest, EnospcFailsWriteAndPreservesPreviousSnapshot) {
  const std::string file = path("snapshot.dkgs");
  save_snapshot(tiny_snapshot(3), file);
  const auto good_size = std::filesystem::file_size(file);

  SnapshotWriteOptions options;
  options.test_write_errno = ENOSPC;
  try {
    save_snapshot(tiny_snapshot(9), file, options);
    FAIL() << "ENOSPC write did not fail";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("write failed"),
              std::string::npos);
  }
  // The torn temp file is unlinked and the previous snapshot untouched.
  EXPECT_FALSE(std::filesystem::exists(file + ".tmp"));
  EXPECT_EQ(std::filesystem::file_size(file), good_size);
  EXPECT_EQ(load_snapshot(file).trainer.next_epoch, 3);
}

namespace hook_state {
int eio_budget = 0;
}  // namespace hook_state

ssize_t eio_then_real(const std::string&, int fd, const void* buf,
                      std::size_t count) {
  if (hook_state::eio_budget > 0) {
    --hook_state::eio_budget;
    errno = EIO;
    return -1;
  }
  return ::write(fd, buf, count);
}

ssize_t trickle_write(const std::string&, int fd, const void* buf,
                      std::size_t count) {
  // A nearly-full or slow device: one byte per write(2).
  return ::write(fd, buf, count == 0 ? 0 : 1);
}

TEST_F(CheckpointDirTest, EioThroughSyscallHookFailsAndUnlinksTemp) {
  const std::string file = path("snapshot.dkgs");
  save_snapshot(tiny_snapshot(5), file);

  hook_state::eio_budget = 1;
  set_write_syscall_hook_for_testing(&eio_then_real);
  EXPECT_THROW(save_snapshot(tiny_snapshot(8), file), std::runtime_error);
  set_write_syscall_hook_for_testing(nullptr);

  EXPECT_FALSE(std::filesystem::exists(file + ".tmp"));
  EXPECT_EQ(load_snapshot(file).trainer.next_epoch, 5);
}

TEST_F(CheckpointDirTest, ShortWritesAreRetriedToACompleteSnapshot) {
  const std::string file = path("snapshot.dkgs");
  set_write_syscall_hook_for_testing(&trickle_write);
  save_snapshot(tiny_snapshot(4), file);
  set_write_syscall_hook_for_testing(nullptr);

  EXPECT_EQ(load_snapshot(file).trainer.next_epoch, 4);
}

}  // namespace
}  // namespace dynkge::kge
