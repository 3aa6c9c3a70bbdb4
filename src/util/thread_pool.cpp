#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>

namespace dynkge::util {

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = std::max<std::size_t>(1, num_threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wakeup_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++idle_;
      wakeup_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      --idle_;
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(
    std::size_t total,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (total == 0) return;
  const std::size_t chunks = std::min(total, size());
  const std::size_t base = total / chunks;
  const std::size_t extra = total % chunks;

  // The last chunk runs inline on the calling thread: one less queue
  // round-trip, and a saturated pool still makes progress.
  std::vector<std::future<void>> pending;
  pending.reserve(chunks - 1);
  std::size_t begin = 0;
  for (std::size_t c = 0; c + 1 < chunks; ++c) {
    const std::size_t end = begin + base + (c < extra ? 1 : 0);
    pending.push_back(submit([&fn, begin, end] { fn(begin, end); }));
    begin = end;
  }
  // Every chunk must finish before returning — the submitted lambdas
  // reference `fn` and the caller's captures — so collect errors instead
  // of letting the first one unwind past live tasks.
  std::exception_ptr error;
  try {
    fn(begin, total);
  } catch (...) {
    error = std::current_exception();
  }
  for (auto& future : pending) {
    try {
      future.get();
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::run_cohort(std::size_t n,
                            const std::function<void(std::size_t)>& body) {
  if (n == 0) return;

  // Claim-once protocol: every runner (pool worker or overflow thread)
  // draws the next unclaimed rank and executes it. Spawning more runners
  // than ranks is harmless — surplus runners find nothing and exit — which
  // is what makes the liveness rescue below safe.
  struct Cohort {
    std::mutex mu;
    std::condition_variable done;
    std::size_t next_rank = 0;
    std::size_t started = 0;
    std::size_t finished = 0;
    std::vector<std::exception_ptr> errors;
  };
  auto cohort = std::make_shared<Cohort>();
  cohort->errors.resize(n);

  // `body` is captured by reference: the caller blocks until every rank
  // finished, so the reference outlives all runners.
  auto runner = [cohort, &body, n] {
    while (true) {
      std::size_t rank;
      {
        std::lock_guard<std::mutex> lock(cohort->mu);
        if (cohort->next_rank >= n) return;
        rank = cohort->next_rank++;
        ++cohort->started;
      }
      try {
        body(rank);
      } catch (...) {
        cohort->errors[rank] = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(cohort->mu);
        ++cohort->finished;
      }
      cohort->done.notify_all();
    }
  };

  // Hand ranks to workers that are idle right now; everything else gets a
  // transient overflow thread so all n bodies are live together.
  std::size_t pool_share = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!stopping_) {
      pool_share = std::min(n, idle_);
      for (std::size_t i = 0; i < pool_share; ++i) queue_.emplace(runner);
    }
  }
  if (pool_share > 0) wakeup_.notify_all();

  std::vector<std::thread> overflow;
  overflow.reserve(n - pool_share);
  for (std::size_t i = pool_share; i < n; ++i) overflow.emplace_back(runner);

  // Liveness rescue: an idle-counted worker can be stolen by a concurrent
  // submit() racing ahead of our queued runner, leaving a rank unstarted
  // while its siblings block at a barrier. If ranks are still unclaimed
  // after a grace period, give each one its own overflow thread.
  {
    std::unique_lock<std::mutex> lock(cohort->mu);
    while (cohort->finished < n) {
      if (cohort->done.wait_for(lock, std::chrono::milliseconds(100), [&] {
            return cohort->finished == n;
          })) {
        break;
      }
      const std::size_t unstarted = n - cohort->started;
      if (unstarted > 0) {
        lock.unlock();
        for (std::size_t i = 0; i < unstarted; ++i) {
          overflow.emplace_back(runner);
        }
        lock.lock();
      }
    }
  }
  for (auto& thread : overflow) thread.join();

  // A pool worker's copy of `cohort` can outlive this call. Holding the
  // errors here means every exception is released on this thread, never
  // freed by a worker while the caller still reads the rethrown one.
  const std::vector<std::exception_ptr> errors = std::move(cohort->errors);
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace dynkge::util
