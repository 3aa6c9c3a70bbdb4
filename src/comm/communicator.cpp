#include "comm/communicator.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <thread>

#include "util/fnv1a.hpp"

namespace dynkge::comm {

void Barrier::arrive_and_wait() {
  std::unique_lock<std::mutex> lock(mu_);
  if (aborted_.load(std::memory_order_acquire)) throw AbortedError{};
  const std::uint64_t my_generation = generation_;
  if (++waiting_ == num_ranks_) {
    waiting_ = 0;
    ++generation_;
    cv_.notify_all();
    return;
  }
  cv_.wait(lock, [&] {
    return generation_ != my_generation ||
           aborted_.load(std::memory_order_acquire);
  });
  // A completed generation releases normally even when an abort raced in
  // after the last arrival — the fault check's verdict protocol
  // (Communicator::check_faults) depends on every released rank getting to
  // act on the verdict slots. Only a wait whose generation never completed
  // turns into AbortedError; the abort still poisons all future entries
  // via the check above.
  if (generation_ == my_generation) throw AbortedError{};
}

void Barrier::abort() {
  std::lock_guard<std::mutex> lock(mu_);
  aborted_.store(true, std::memory_order_release);
  cv_.notify_all();
}

void Communicator::publish_and_sync(const std::byte* data, std::size_t bytes) {
  state_.clock[rank_] = sim_now_;
  if (injector_ == nullptr) {
    state_.ptr[rank_] = data;
    state_.size[rank_] = bytes;
    state_.barrier.arrive_and_wait();
    return;
  }

  // Wire-integrity path (armed by attaching any injector, even an empty
  // schedule — the CLI's --wire-checksums). The FNV-1a digest is computed
  // over the payload this rank *intends* to send, before any corruption,
  // and costs no simulated seconds (DESIGN.md §13); a scheduled kCorrupt
  // fault publishes a copy with its first byte flipped instead for its
  // first rounds — an empty payload becomes one flipped byte, so every
  // corruption changes the digest. After the publish barrier, every rank
  // verifies every slot against its checksum over identical shared state,
  // so all ranks reach the same verdict: clean -> proceed, corrupt -> a
  // separator barrier (re-publishing must not race ranks still verifying)
  // and another round, budget exhausted -> the corrupting rank dies with
  // RankFailedError and the rest unwind with AbortedError (aggregated by
  // Cluster::run like any rank death).
  const int corrupt_sends = pending_corrupt_sends_;
  pending_corrupt_sends_ = 0;
  const std::uint64_t clean_hash = util::fnv1a(data, bytes);
  const RetryPolicy& policy = injector_->policy();
  double backoff = policy.backoff_seconds;
  int round = 0;
  while (true) {
    state_.ptr[rank_] = data;
    state_.size[rank_] = bytes;
    if (round < corrupt_sends) {
      injector_->record_corrupted_payload();
      corrupt_scratch_.assign(data, data + bytes);
      if (corrupt_scratch_.empty()) corrupt_scratch_.push_back(std::byte{0});
      corrupt_scratch_[0] ^= std::byte{0x01};
      state_.ptr[rank_] = corrupt_scratch_.data();
      state_.size[rank_] = corrupt_scratch_.size();
    }
    state_.checksum[rank_] = clean_hash;
    state_.barrier.arrive_and_wait();

    bool any_bad = false;
    bool self_bad = false;
    for (int r = 0; r < num_ranks_; ++r) {
      const std::uint64_t got = util::fnv1a(state_.ptr[r], state_.size[r]);
      if (got != state_.checksum[r]) {
        any_bad = true;
        if (r == rank_) self_bad = true;
      }
    }
    if (!any_bad) return;

    // Corruption caught. The corrupting rank records detection (once, so
    // corrupted == detected stays exact) and either retransmits or dies.
    if (self_bad) injector_->record_corruption_detected();
    // Separator: nobody re-publishes, or unwinds and frees the payload its
    // slot points at, until everyone finished verifying.
    state_.barrier.arrive_and_wait();
    if (round + 1 >= policy.max_attempts) {
      if (self_bad) {
        injector_->record_retransmit_exhausted();
        throw RankFailedError(
            rank_, "corrupted payload at collective #" +
                       std::to_string(collective_index_ - 1) +
                       " persisted through " +
                       std::to_string(policy.max_attempts) + " attempts");
      }
      throw AbortedError{};
    }
    if (self_bad) injector_->record_retransmit(backoff);
    backoff *= policy.backoff_multiplier;
    ++round;
  }
}

void Communicator::align_clock() {
  double max_clock = sim_now_;
  for (int r = 0; r < num_ranks_; ++r) {
    max_clock = std::max(max_clock, state_.clock[r]);
  }
  sim_now_ = max_clock;
}

void Communicator::allgatherv_slots(std::span<const std::byte> local,
                                    const std::function<void(Slots)>& read,
                                    bool charge_cost) {
  check_faults();
  publish_and_sync(local.data(), local.size());
  align_clock();
  slot_scratch_.resize(static_cast<std::size_t>(num_ranks_));
  std::size_t total = 0;
  for (int r = 0; r < num_ranks_; ++r) {
    slot_scratch_[r] = {state_.ptr[r], state_.size[r]};
    total += state_.size[r];
  }
  std::exception_ptr error;
  try {
    read(slot_scratch_);
  } catch (...) {
    error = std::current_exception();
  }
  if (charge_cost) {
    const double t = model_.allgatherv_time(num_ranks_, total, local.size());
    apply_cost(CollectiveKind::kAllGatherV, local.size(), t);
  }
  release();
  if (error != nullptr) std::rethrow_exception(error);
}

double Communicator::allreduce_scalar(double value, ScalarOp op) {
  double result = 0.0;
  allgatherv_slots(
      std::as_bytes(std::span<const double>(&value, 1)),
      [&](Slots slots) {
        for (int r = 0; r < num_ranks_; ++r) {
          if (slots[r].size() != sizeof(double)) {
            throw std::logic_error(
                "allreduce_scalar: rank " + std::to_string(r) +
                " published " + std::to_string(slots[r].size()) + " bytes");
          }
          double v = 0.0;
          std::memcpy(&v, slots[r].data(), sizeof(v));
          if (r == 0) {
            result = v;
            continue;
          }
          switch (op) {
            case ScalarOp::kSum:
              result += v;
              break;
            case ScalarOp::kMin:
              result = std::min(result, v);
              break;
            case ScalarOp::kMax:
              result = std::max(result, v);
              break;
          }
        }
      },
      /*charge_cost=*/false);
  const double t = model_.allreduce_time(num_ranks_, sizeof(double));
  apply_cost(CollectiveKind::kAllReduce, sizeof(double), t);
  return result;
}

void Communicator::charge(CollectiveKind kind, std::size_t total_bytes,
                          std::size_t self_bytes) {
  const double t = model_.time_for(kind, num_ranks_, total_bytes, self_bytes);
  apply_cost(kind, self_bytes, t);
}

Cluster::Cluster(int num_ranks, CostModelParams params)
    : num_ranks_(num_ranks), model_(params) {
  if (num_ranks < 1) {
    throw std::invalid_argument("Cluster: num_ranks must be >= 1");
  }
}

void Cluster::run(const std::function<void(Communicator&)>& fn,
                  util::ThreadPool& pool) {
  SharedState state(num_ranks_);
  std::vector<std::exception_ptr> errors(num_ranks_);

  pool.run_cohort(static_cast<std::size_t>(num_ranks_), [&](std::size_t r) {
    Communicator communicator(static_cast<int>(r), num_ranks_, state, model_);
    communicator.set_fault_injector(injector_);
    try {
      fn(communicator);
    } catch (const AbortedError&) {
      // Secondary failure caused by a sibling's abort; ignore.
    } catch (...) {
      errors[r] = std::current_exception();
      state.barrier.abort();
    }
  });

  // Aggregate rank deaths: surface every RankFailedError as one error
  // carrying the full set. Simultaneous crashes are deterministic — the
  // fault check's verdict barrier (Communicator::check_faults) guarantees
  // every victim reaches its own check before any rank unwinds. Any
  // non-rank-death error takes precedence, lowest rank first.
  std::vector<RankFailedError::Failure> failures;
  for (int r = 0; r < num_ranks_; ++r) {
    if (!errors[r]) continue;
    try {
      std::rethrow_exception(errors[r]);
    } catch (const RankFailedError& error) {
      for (const auto& failure : error.failures()) {
        failures.push_back(failure);
      }
    } catch (...) {
      std::rethrow_exception(errors[r]);
    }
  }
  if (!failures.empty()) throw RankFailedError(std::move(failures));
}

void Cluster::run(const std::function<void(Communicator&)>& fn) {
  util::ThreadPool pool(static_cast<std::size_t>(num_ranks_));
  run(fn, pool);
}

}  // namespace dynkge::comm
