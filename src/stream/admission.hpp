// AdmissionController — queue-depth load-shedding for the serving layer.
//
// Two pressures meet in a streaming serving system: client reads and
// delta-update work. Without admission control an update burst can queue
// unbounded refresh work behind reads (or vice versa) until every request
// times out. The controller keeps one number — the count of in-flight
// read queries — and applies two policies to it:
//
//   * Read shedding: when `max_read_inflight` is set and the depth is at
//     the limit, new reads are rejected immediately (fail fast beats
//     queueing into a latency cliff). The InferenceService returns a null
//     result for shed queries and counts them.
//
//   * Update deferral: when `defer_updates_above` is set, the delta
//     ingestor delays publishing a refresh while read depth exceeds the
//     threshold, up to `max_update_defer_rounds` yields — updates yield to
//     reads under load, but are never starved forever.
//
// All counters are relaxed atomics; admission is wait-free on the read
// path (one CAS loop bounded by contention on a single cache line).
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

namespace dynkge::stream {

struct AdmissionConfig {
  /// Reads allowed in flight at once; 0 = unlimited (never shed).
  std::size_t max_read_inflight = 0;
  /// Defer update publishes while read depth exceeds this; 0 = never
  /// defer.
  std::size_t defer_updates_above = 0;
  /// Yield at most this many times while deferring one update.
  int max_update_defer_rounds = 1000;
};

class AdmissionController {
 public:
  AdmissionController() = default;
  explicit AdmissionController(const AdmissionConfig& config)
      : config_(config) {}

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Try to admit `n` read queries. On success the caller owes a matching
  /// exit_read(n); on failure (queue full) the queries were shed.
  bool try_enter_read(std::size_t n = 1) {
    if (config_.max_read_inflight == 0) {
      inflight_.fetch_add(n, std::memory_order_relaxed);
      return true;
    }
    std::size_t depth = inflight_.load(std::memory_order_relaxed);
    for (;;) {
      if (depth + n > config_.max_read_inflight) {
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

  /// Block (bounded) while reads are saturated; called by the ingestor
  /// before publishing a refresh. Returns the number of yield rounds the
  /// update waited.
  int defer_update() {
    if (config_.defer_updates_above == 0) return 0;
    int rounds = 0;
    while (inflight_.load(std::memory_order_relaxed) >
               config_.defer_updates_above &&
           rounds < config_.max_update_defer_rounds) {
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
  const AdmissionConfig& config() const { return config_; }

 private:
  AdmissionConfig config_;
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
