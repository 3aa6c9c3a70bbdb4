// Fault injection for the simulated cluster.
//
// On a real cluster the dominant failure modes are a rank dying mid-run, a
// collective failing transiently (link flap, timeout), and a straggler rank
// stalling everyone at the next synchronization point. The FaultInjector
// reproduces all three deterministically: a seeded schedule maps
// (rank, rank-local collective index) -> fault event, and every
// Communicator consults the injector at the entry of every collective.
//
// Semantics per kind:
//
//  * kRankCrash  — the rank throws RankFailedError *before* publishing its
//    payload. Cluster::run catches it, aborts the shared barrier so the
//    surviving ranks unwind with AbortedError instead of deadlocking, and
//    rethrows the RankFailedError to the caller.
//
//  * kTransient  — the collective "fails" for the first `failures`
//    attempts and is retried with exponential backoff (RetryPolicy). The
//    retries are accounted (counters + modeled backoff seconds) but do not
//    touch the simulated training clock, so an injected-and-recovered
//    transient fault leaves training results byte-identical to a clean
//    run. Exhausting the retry budget escalates to RankFailedError.
//
//  * kStraggler  — the rank's simulated clock is advanced by
//    `delay_seconds` before the collective, so the cluster-max clock
//    alignment stalls every sibling — exactly what a slow rank does to a
//    synchronous collective. With a collective deadline configured, a
//    straggler whose delay exceeds the deadline trips the watchdog and
//    escalates to RankFailedError instead.
//
//  * kCorrupt    — the rank publishes a bit-flipped payload for its first
//    `failures` attempts at the collective. Attaching any injector arms
//    per-collective FNV-1a payload checksums in the Communicator; every
//    rank verifies every published slot against its checksum (identical
//    shared state, so the verdict is deterministic), the corrupter
//    retransmits under the RetryPolicy, and exhausting the budget
//    escalates to RankFailedError. Detection/retransmit accounting lives
//    on the injector, not the training clock, so a recovered corruption
//    leaves results byte-identical to a clean run.
//
//  * kHang       — the collective never completes on that rank. A hang is
//    only meaningful with a collective deadline (the injector refuses the
//    schedule otherwise, naming --collective-deadline): the deadline
//    watchdog converts the hang into a deterministic RankFailedError at
//    the verdict phase, so elastic recovery can absorb it — the simulated
//    cluster never actually blocks.
//
// Thread safety: before_collective is called concurrently from all rank
// threads; the schedule is immutable after construction and the counters
// are atomics, so the injector is safe to share across one cluster run.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"

namespace dynkge::comm {

/// Thrown when one or more ranks die (injected crash, or a transient
/// fault that exhausted its retry budget). Cluster::run aggregates the
/// failures of a single run — two ranks crashing at the same collective
/// both appear — aborts the surviving ranks at their next barrier, and
/// rethrows one error carrying the full set, so elastic recovery can
/// shrink the world by more than one rank at a time.
class RankFailedError : public std::runtime_error {
 public:
  struct Failure {
    int rank = 0;
    std::string what;
  };

  RankFailedError(int rank, const std::string& what)
      : std::runtime_error("rank " + std::to_string(rank) + " failed: " +
                           what),
        failures_{{rank, what}} {}

  /// Aggregate constructor; failures are sorted by rank.
  explicit RankFailedError(std::vector<Failure> failures)
      : RankFailedError(Sorted{}, sort_by_rank(std::move(failures))) {}

  /// Lowest failed rank (single-failure callers see the only rank).
  int rank() const { return failures_.front().rank; }

  /// Every failed rank with its per-rank reason, ascending by rank.
  const std::vector<Failure>& failures() const { return failures_; }

  /// Just the failed rank ids, ascending.
  std::vector<int> ranks() const {
    std::vector<int> out;
    out.reserve(failures_.size());
    for (const Failure& f : failures_) out.push_back(f.rank);
    return out;
  }

 private:
  struct Sorted {};
  RankFailedError(Sorted, std::vector<Failure> failures)
      : std::runtime_error(describe(failures)),
        failures_(std::move(failures)) {}

  static std::vector<Failure> sort_by_rank(std::vector<Failure> failures);
  static std::string describe(const std::vector<Failure>& failures);

  std::vector<Failure> failures_;
};

enum class FaultKind : std::uint8_t {
  kRankCrash,   ///< rank dies at the collective; siblings unwind via abort
  kTransient,   ///< collective fails `failures` times, then succeeds
  kStraggler,   ///< rank stalls `delay_seconds` of simulated time
  kCorrupt,     ///< rank bit-flips its payload for `failures` attempts
  kHang,        ///< collective never completes; needs a deadline watchdog
};

const char* to_string(FaultKind kind);

/// What the fault schedule asks of one rank at one collective (the
/// non-fatal outcomes of before_collective; fatal ones throw).
struct CollectiveFault {
  double straggler_seconds = 0.0;  ///< simulated stall to apply
  int corrupt_sends = 0;  ///< attempts publishing a bit-flipped payload
};

/// One scheduled fault: fires on `rank` at its `collective_index`-th
/// collective (rank-local, 0-based — deterministic regardless of host
/// thread scheduling). With `epoch >= 0` the event is epoch-scoped
/// instead: it fires at the rank's first collective inside that training
/// epoch, which keeps fault schedules aligned across resume/restart and
/// elastic shrink (epoch e is still epoch e after either).
///
/// Every event fires at most once per injector lifetime: after elastic
/// recovery the rank-local collective indices restart from zero, and a
/// consumed crash must not kill the survivor that inherited the victim's
/// rank id.
struct FaultEvent {
  FaultKind kind = FaultKind::kTransient;
  int rank = 0;
  std::uint64_t collective_index = 0;
  int failures = 1;            ///< transient/corrupt: failed attempts
  double delay_seconds = 0.1;  ///< straggler: simulated stall
  int epoch = -1;              ///< >= 0: fire on the first collective of
                               ///< this epoch instead of by index
};

/// Bounded retry with exponential backoff for transient collective faults.
struct RetryPolicy {
  int max_attempts = 4;            ///< total attempts per collective
  double backoff_seconds = 1e-3;   ///< modeled pause before the 1st retry
  double backoff_multiplier = 2.0; ///< growth per further retry
};

/// Point-in-time copy of the injector's accounting.
struct FaultCounters {
  std::uint64_t crashes = 0;     ///< rank-crash events fired
  std::uint64_t transients = 0;  ///< transient events recovered by retry
  std::uint64_t stragglers = 0;  ///< straggler delays applied
  std::uint64_t retries = 0;     ///< individual retry attempts
  std::uint64_t exhausted = 0;   ///< faults escalated to RankFailed
  double backoff_seconds = 0.0;  ///< total modeled backoff spent
  // Wire-integrity accounting (recorded by the Communicator's checksum
  // verify loop). Zero silent corruption is the machine-checked invariant
  // corrupted_payloads == corruptions_detected.
  std::uint64_t corrupted_payloads = 0;    ///< bit-flipped publishes
  std::uint64_t corruptions_detected = 0;  ///< checksum mismatches caught
  std::uint64_t retransmits = 0;           ///< re-publishes after detection
  std::uint64_t watchdog_trips = 0;        ///< hangs/stragglers past the
                                           ///< collective deadline
};

class FaultInjector {
 public:
  /// `collective_deadline` (simulated seconds, 0 = no watchdog) is the
  /// per-collective budget the deadline watchdog enforces: a kHang event
  /// or a kStraggler whose delay exceeds it becomes a deterministic
  /// RankFailedError. A schedule containing kHang with no deadline is
  /// rejected (the hang would otherwise be undetectable), as are knobs
  /// validate() rejects.
  explicit FaultInjector(std::vector<FaultEvent> schedule,
                         RetryPolicy policy = {},
                         double collective_deadline = 0.0);

  /// Reject a retry limit below 1, a backoff base that is not positive, or
  /// a negative deadline, naming the CLI flag (--fault-retry-limit,
  /// --fault-backoff-base, --collective-deadline). Throws
  /// std::invalid_argument. The constructor runs it; the CLI also runs it
  /// when no injector is built, so a bad flag never passes silently.
  static void validate(const RetryPolicy& policy, double collective_deadline);

  /// Parse a comma-separated CLI spec into a schedule. Each event is
  ///   crash@RANK@INDEX
  ///   transient@RANK@INDEX[@FAILURES]
  ///   straggler@RANK@INDEX[@DELAY_SECONDS]
  ///   corrupt@RANK@INDEX[@FAILURES]
  ///   hang@RANK@INDEX
  /// where INDEX is either a rank-local collective index ("40") or an
  /// epoch address ("e2": first collective of epoch 2 — stable across
  /// restarts and elastic shrink). e.g. "transient@1@40@2,crash@1@e2".
  /// FAILURES must be >= 1 and DELAY_SECONDS finite and >= 0. Throws
  /// std::invalid_argument naming --fault-spec on malformed specs.
  static std::vector<FaultEvent> parse_spec(const std::string& spec);

  /// Called by a rank at the entry of its `index`-th collective; `epoch`
  /// is the caller's current training epoch (-1 outside an epoch — epoch-
  /// scoped events then cannot fire). Returns the non-fatal fault to apply
  /// (straggler seconds for the simulated clock, corrupt publish rounds
  /// for the checksum loop; all-zero for no fault). Throws RankFailedError
  /// for crash events, transient events whose `failures` meets or exceeds
  /// the retry budget, hangs, and stragglers past the collective deadline.
  /// Each scheduled event fires at most once per injector lifetime.
  CollectiveFault before_collective(int rank, std::uint64_t index,
                                    int epoch = -1);

  const RetryPolicy& policy() const { return policy_; }
  double collective_deadline() const { return collective_deadline_; }
  FaultCounters counters() const;

  // --- wire-integrity accounting -------------------------------------
  // Called by the Communicator's checksum loop, on the corrupting rank
  // only, so corrupted_payloads == corruptions_detected is exact (every
  // corruption is global-deterministically detected by all ranks, but
  // recorded once).
  void record_corrupted_payload();
  void record_corruption_detected();
  /// One re-publish after a detected corruption; the backoff is modeled
  /// on the injector (like transient retries), never the training clock.
  void record_retransmit(double backoff_seconds);
  void record_retransmit_exhausted();

  /// Optional observability: counters mirrored into `metrics` under
  /// comm.fault.* as they fire. Set before the cluster runs.
  void set_metrics(obs::MetricsRegistry* metrics);

 private:
  /// Key = rank * kRankStride + collective_index (or epoch, for the
  /// epoch-scoped map).
  static std::uint64_t key(int rank, std::uint64_t index) {
    return static_cast<std::uint64_t>(rank) * kRankStride + index;
  }
  static constexpr std::uint64_t kRankStride = 1ULL << 48;

  /// A schedule entry plus its slot in the fired_ one-shot bitmap.
  struct Scheduled {
    FaultEvent event;
    std::size_t slot = 0;
  };

  CollectiveFault fire(const Scheduled& scheduled, int rank);

  RetryPolicy policy_;
  double collective_deadline_ = 0.0;
  std::unordered_map<std::uint64_t, Scheduled> events_;        // by index
  std::unordered_map<std::uint64_t, Scheduled> epoch_events_;  // by epoch
  std::unique_ptr<std::atomic<bool>[]> fired_;

  std::atomic<std::uint64_t> crashes_{0};
  std::atomic<std::uint64_t> transients_{0};
  std::atomic<std::uint64_t> stragglers_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> exhausted_{0};
  std::atomic<double> backoff_seconds_{0.0};
  std::atomic<std::uint64_t> corrupted_payloads_{0};
  std::atomic<std::uint64_t> corruptions_detected_{0};
  std::atomic<std::uint64_t> retransmits_{0};
  std::atomic<std::uint64_t> watchdog_trips_{0};

  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* m_crashes_ = nullptr;
  obs::Counter* m_transients_ = nullptr;
  obs::Counter* m_stragglers_ = nullptr;
  obs::Counter* m_retries_ = nullptr;
  obs::Counter* m_exhausted_ = nullptr;
  obs::Counter* m_corrupted_ = nullptr;
  obs::Counter* m_detected_ = nullptr;
  obs::Counter* m_retransmits_ = nullptr;
  obs::Counter* m_watchdog_ = nullptr;
};

}  // namespace dynkge::comm
