#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace dynkge::util {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  ThreadPool pool(2);
  auto future =
      pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1u);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      // Slow first task so the rest are still queued at destruction.
      pool.submit([&counter, i] {
        if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
        ++counter;
      });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> touched(1000);
  pool.parallel_for(touched.size(), [&](std::size_t begin, std::size_t end) {
    EXPECT_LE(begin, end);
    for (std::size_t i = begin; i < end; ++i) ++touched[i];
  });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPool, ParallelForSmallRange) {
  ThreadPool pool(8);
  std::atomic<int> total{0};
  pool.parallel_for(3, [&](std::size_t begin, std::size_t end) {
    total += static_cast<int>(end - begin);
  });
  EXPECT_EQ(total.load(), 3);
  // Empty range: fn never runs.
  pool.parallel_for(0, [&](std::size_t, std::size_t) { ADD_FAILURE(); });
}

TEST(ThreadPool, ParallelForUsesMultipleThreads) {
  ThreadPool pool(4);
  std::mutex mutex;
  std::set<std::thread::id> ids;
  pool.parallel_for(4000, [&](std::size_t begin, std::size_t end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::lock_guard<std::mutex> lock(mutex);
    ids.insert(std::this_thread::get_id());
    (void)begin;
    (void)end;
  });
  EXPECT_GE(ids.size(), 2u);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t, std::size_t) {
                                   throw std::runtime_error("chunk failed");
                                 }),
               std::runtime_error);
}

// --- run_cohort: the primitive comm::Cluster runs its rank programs on ---

TEST(ThreadPool, RunCohortCoSchedulesBeyondPoolSize) {
  // All 8 bodies rendezvous before any may finish. A FIFO pool with only 2
  // workers would run 2 bodies, block them forever, and deadlock — the
  // cohort must therefore be genuinely co-scheduled.
  ThreadPool pool(2);
  constexpr std::size_t kRanks = 8;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t arrived = 0;
  pool.run_cohort(kRanks, [&](std::size_t) {
    std::unique_lock<std::mutex> lock(mu);
    ++arrived;
    cv.notify_all();
    cv.wait(lock, [&] { return arrived == kRanks; });
  });
  EXPECT_EQ(arrived, kRanks);
}

TEST(ThreadPool, RunCohortRunsEachRankExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> runs(16);
  pool.run_cohort(runs.size(), [&](std::size_t rank) { ++runs[rank]; });
  for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
}

TEST(ThreadPool, RunCohortZeroRanksIsANoop) {
  ThreadPool pool(2);
  pool.run_cohort(0, [](std::size_t) { ADD_FAILURE(); });
}

TEST(ThreadPool, RunCohortPropagatesRankBodyException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    pool.run_cohort(6, [&](std::size_t rank) {
      if (rank == 3) throw std::runtime_error("rank 3 failed");
      ++completed;
    });
    FAIL() << "expected the rank body's exception to propagate";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "rank 3 failed");
  }
  // Sibling ranks are not torn down by one rank's failure.
  EXPECT_EQ(completed.load(), 5);
}

TEST(ThreadPool, RunCohortRethrowsLowestRankError) {
  // Every rank fails; the caller must deterministically see rank 0's
  // error, not whichever thread happened to throw first.
  ThreadPool pool(4);
  try {
    pool.run_cohort(4, [](std::size_t rank) {
      throw std::runtime_error("rank " + std::to_string(rank));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "rank 0");
  }
}

TEST(ThreadPool, RunCohortWhilePoolIsBusy) {
  // Workers are pinned by slow foreign tasks; the cohort must still make
  // progress (overflow threads) and the foreign tasks still complete.
  ThreadPool pool(2);
  std::atomic<int> foreign{0};
  std::vector<std::future<void>> pending;
  for (int i = 0; i < 2; ++i) {
    pending.push_back(pool.submit([&foreign] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      ++foreign;
    }));
  }
  std::atomic<int> ranks_run{0};
  pool.run_cohort(4, [&](std::size_t) { ++ranks_run; });
  for (auto& f : pending) f.get();
  EXPECT_EQ(ranks_run.load(), 4);
  EXPECT_EQ(foreign.load(), 2);
}

}  // namespace
}  // namespace dynkge::util
