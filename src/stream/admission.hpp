// AdmissionController — queue-depth load-shedding for the serving layer.
//
// Two pressures meet in a streaming serving system: client reads and
// delta-update work. Without admission control an update burst can queue
// unbounded refresh work behind reads (or vice versa) until every request
// times out. The controller keeps one number — the count of in-flight
// read queries — and one limit, `max_inflight` (0 = unlimited), and
// applies two policies to them:
//
//   * Read shedding: a read that would take the depth past the limit is
//     rejected immediately (fail fast beats queueing into a latency
//     cliff). The InferenceService returns a null result for shed queries
//     and counts them.
//
//   * Update deferral: while reads sit at the limit, the delta ingestor
//     delays publishing a refresh by up to kMaxDeferRounds yields —
//     updates yield to reads under load, but are never starved forever.
//
// All counters are relaxed atomics; admission is wait-free on the read
// path (one CAS loop bounded by contention on a single cache line).
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

namespace dynkge::stream {

class AdmissionController {
 public:
  /// Yields one deferred update waits at most.
  static constexpr int kMaxDeferRounds = 1000;

  /// `max_inflight`: reads allowed in flight at once; 0 = unlimited
  /// (never shed, never defer).
  explicit AdmissionController(std::size_t max_inflight = 0)
      : max_inflight_(max_inflight) {}

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Try to admit `n` read queries. On success the caller owes a matching
  /// exit_read(n); on failure (queue full) the queries were shed.
  bool try_enter_read(std::size_t n = 1) {
    if (max_inflight_ == 0) {
      inflight_.fetch_add(n, std::memory_order_relaxed);
      return true;
    }
    std::size_t depth = inflight_.load(std::memory_order_relaxed);
    for (;;) {
      if (depth + n > max_inflight_) {
        shed_.fetch_add(n, std::memory_order_relaxed);
        return false;
      }
      if (inflight_.compare_exchange_weak(depth, depth + n,
                                          std::memory_order_relaxed)) {
        return true;
      }
    }
  }

  void exit_read(std::size_t n = 1) {
    inflight_.fetch_sub(n, std::memory_order_relaxed);
  }

  /// Block (bounded) while reads sit at the in-flight limit; called by
  /// the ingestor before publishing a refresh. Returns the number of
  /// yield rounds the update waited.
  int defer_update() {
    if (max_inflight_ == 0) return 0;
    int rounds = 0;
    while (inflight_.load(std::memory_order_relaxed) >= max_inflight_ &&
           rounds < kMaxDeferRounds) {
      std::this_thread::yield();
      ++rounds;
    }
    if (rounds > 0) deferrals_.fetch_add(1, std::memory_order_relaxed);
    return rounds;
  }

  std::uint64_t shed_reads() const {
    return shed_.load(std::memory_order_relaxed);
  }
  std::uint64_t update_deferrals() const {
    return deferrals_.load(std::memory_order_relaxed);
  }

 private:
  const std::size_t max_inflight_;
  std::atomic<std::size_t> inflight_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> deferrals_{0};
};

/// RAII read ticket: admitted() tells whether the read may proceed; the
/// destructor releases the slot(s) iff admitted.
class ReadTicket {
 public:
  ReadTicket(AdmissionController* controller, std::size_t n)
      : controller_(controller),
        n_(n),
        admitted_(controller == nullptr || controller->try_enter_read(n)) {}
  ~ReadTicket() {
    if (admitted_ && controller_ != nullptr) controller_->exit_read(n_);
  }
  ReadTicket(const ReadTicket&) = delete;
  ReadTicket& operator=(const ReadTicket&) = delete;

  bool admitted() const { return admitted_; }

 private:
  AdmissionController* controller_;
  std::size_t n_;
  bool admitted_;
};

}  // namespace dynkge::stream
