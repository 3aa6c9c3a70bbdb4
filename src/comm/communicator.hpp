// Threads-as-ranks message-passing runtime.
//
// This module stands in for MPI/Horovod on the paper's Cray XC40 (see
// DESIGN.md section 2). Each simulated node is a rank program with
// rank-private state, co-scheduled on a host thread pool
// (util::ThreadPool::run_cohort) so all P ranks execute concurrently;
// collectives have MPI semantics (synchronous, in rank order,
// deterministic) and exchange data through a shared staging area guarded
// by a generation-counted barrier.
//
// The data operations are two collectives and a cost entry:
// allgatherv_slots (every rank reads all P published payloads in place),
// allreduce_scalar (an 8-byte gather reduced in rank order, charged as an
// all-reduce) and charge (the modeled cost of a collective the caller
// realized some cheaper way). All publishes take one path, so one
// checksum/retransmit loop covers every collective.
//
// Timing: physical thread time spent inside collectives is *not* what the
// experiments report. Instead every Communicator carries a simulated clock:
// compute segments advance it by measured thread-CPU seconds (see
// util/thread_clock.hpp), and each collective (a) aligns all ranks' clocks
// to the maximum — the synchronization a real collective imposes — and
// (b) adds the alpha-beta-gamma modeled cost of the operation.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

#include "comm/cost_model.hpp"
#include "comm/fault.hpp"
#include "util/thread_pool.hpp"

namespace dynkge::comm {

/// Thrown out of a pending collective when a sibling rank failed; lets the
/// remaining ranks unwind instead of deadlocking at the barrier.
class AbortedError : public std::runtime_error {
 public:
  AbortedError() : std::runtime_error("dynkge cluster aborted") {}
};

/// Generation-counted barrier with abort support.
class Barrier {
 public:
  explicit Barrier(int num_ranks) : num_ranks_(num_ranks) {}

  /// Block until all ranks arrive. Throws AbortedError after abort().
  void arrive_and_wait();

  /// Wake every waiter and make all current/future waits throw.
  void abort();

  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

 private:
  const int num_ranks_;
  std::mutex mu_;
  std::condition_variable cv_;
  int waiting_ = 0;
  std::uint64_t generation_ = 0;
  std::atomic<bool> aborted_{false};
};

/// Scalar reduction operators for allreduce_scalar.
enum class ScalarOp { kSum, kMin, kMax };

/// Staging area shared by all ranks of one cluster. Slots are valid between
/// the publish barrier and the release barrier of a single collective.
struct SharedState {
  explicit SharedState(int num_ranks)
      : barrier(num_ranks),
        ptr(num_ranks, nullptr),
        size(num_ranks, 0),
        clock(num_ranks, 0.0),
        checksum(num_ranks, 0),
        fault(num_ranks) {}

  Barrier barrier;
  std::vector<const std::byte*> ptr;
  std::vector<std::size_t> size;
  std::vector<double> clock;
  /// FNV-1a digest of the rank's *intended* payload, published alongside
  /// it when a fault injector arms wire integrity.
  /// Receivers verify every slot against it — see
  /// Communicator::publish_and_sync.
  std::vector<std::uint64_t> checksum;
  /// Per-rank fatal-fault verdicts for the current collective's entry
  /// phase (see Communicator::check_faults). Each rank writes only its own
  /// slot before the verdict barrier and reads the others after it.
  std::vector<std::exception_ptr> fault;
};

/// One rank's handle to the cluster: identity, collectives, cost accounting
/// and the simulated clock. Not thread safe across ranks by design — each
/// rank owns exactly one Communicator.
class Communicator {
 public:
  Communicator(int rank, int num_ranks, SharedState& state,
               const CostModel& model)
      : rank_(rank), num_ranks_(num_ranks), state_(state), model_(model) {}

  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  int rank() const { return rank_; }
  int size() const { return num_ranks_; }
  bool is_root() const { return rank_ == 0; }

  /// Reduce one double across ranks in rank order; every rank receives
  /// the same result. Gathered as an 8-byte payload through
  /// allgatherv_slots (so it is checksummed like any other), then charged
  /// as one modeled all-reduce of 8 bytes.
  double allreduce_scalar(double value, ScalarOp op);

  /// Every rank's published payload, indexed by rank.
  using Slots = std::span<const std::span<const std::byte>>;

  /// Gather without a copy: `read` sees all ranks' payloads in place —
  /// published, checksum-verified when wire integrity is armed — after
  /// the publish barrier and before the release barrier, so every slot
  /// stays valid for the whole call. An exception out of `read` is held
  /// until this rank has passed the release barrier (no sibling is still
  /// reading this rank's payload when it unwinds), then rethrown. When
  /// `charge_cost` is false the clocks are still aligned (it is a
  /// synchronization point) but no modeled time or bytes are recorded —
  /// the caller accounts via charge().
  void allgatherv_slots(std::span<const std::byte> local,
                        const std::function<void(Slots)>& read,
                        bool charge_cost = true);

  /// Record the modeled cost of a collective that was *logically* performed
  /// even though the in-process transport did something cheaper (e.g. a
  /// dense allreduce realized as a sparse in-memory merge). Advances the
  /// simulated clock; does not synchronize.
  void charge(CollectiveKind kind, std::size_t total_bytes,
              std::size_t self_bytes);

  // --- simulated clock -----------------------------------------------
  void sim_add_compute(double seconds) { sim_now_ += seconds; }
  double sim_now() const { return sim_now_; }

  CommStats& stats() { return stats_; }
  const CommStats& stats() const { return stats_; }

  /// Attach a fault injector (shared by all ranks of the cluster; usually
  /// set through Cluster::set_fault_injector). Every collective then
  /// consults it before publishing — see comm/fault.hpp for semantics.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  /// Tell the injector which training epoch this rank is in, so
  /// epoch-scoped fault events ("crash@1@e2") can fire. -1 (the default)
  /// means "outside any epoch". Set at the top of each epoch by the
  /// trainer; purely rank-local.
  void set_fault_epoch(int epoch) { fault_epoch_ = epoch; }
  int fault_epoch() const { return fault_epoch_; }

 private:
  /// Account one collective: statistics and the simulated-clock advance.
  /// Single funnel for every cost in this class.
  void apply_cost(CollectiveKind kind, std::size_t bytes, double seconds) {
    stats_.record(kind, bytes, seconds);
    sim_now_ += seconds;
  }
  /// Fault-injection hook, called at the entry of every collective before
  /// this rank publishes. Two phases so that simultaneous rank deaths at
  /// the same collective are deterministic: every rank first evaluates its
  /// own fault and publishes the verdict, then a barrier, then victims
  /// throw RankFailedError while survivors unwind with AbortedError. The
  /// barrier guarantees no rank can be torn out of the collective before
  /// reaching its own fault check, so Cluster::run always observes the
  /// complete set of deaths regardless of host thread timing. Straggler
  /// delays advance the simulated clock; recovered transients cost
  /// nothing. Without an injector this is index bookkeeping only.
  void check_faults() {
    const std::uint64_t index = collective_index_++;
    if (injector_ == nullptr) return;
    std::exception_ptr my_fault;
    CollectiveFault fault;
    try {
      fault = injector_->before_collective(rank_, index, fault_epoch_);
    } catch (const RankFailedError&) {
      my_fault = std::current_exception();
    }
    state_.fault[rank_] = my_fault;
    state_.barrier.arrive_and_wait();
    if (my_fault != nullptr) std::rethrow_exception(my_fault);
    for (int r = 0; r < num_ranks_; ++r) {
      if (state_.fault[r] != nullptr) throw AbortedError{};
    }
    if (fault.straggler_seconds > 0.0) {
      sim_add_compute(fault.straggler_seconds);
    }
    // Consumed by the integrity loop of this collective's publish.
    pending_corrupt_sends_ = fault.corrupt_sends;
  }

  /// Publish this rank's payload + clock, wait for siblings, and return.
  /// After this returns, all ranks' slots are readable.
  ///
  /// With a fault injector attached, wire integrity is armed: every
  /// publish carries an FNV-1a checksum of the intended payload, a
  /// scheduled kCorrupt fault makes this rank publish a bit-flipped copy
  /// instead (an empty payload becomes one flipped byte, so it is caught
  /// too), and after the publish barrier every rank verifies
  /// every slot against its checksum. All ranks verify identical shared
  /// state, so the verdict is deterministic: on a mismatch the corrupter
  /// retransmits (a further publish round under the RetryPolicy, backoff
  /// modeled on the injector — the simulated clock is never charged, so
  /// recovered corruption keeps results byte-identical), and once the
  /// retry budget is exhausted the corrupting rank throws RankFailedError
  /// while the others unwind with AbortedError.
  void publish_and_sync(const std::byte* data, std::size_t bytes);

  /// Align the simulated clock to the cluster max (slots must be synced).
  void align_clock();

  /// Release barrier: siblings may re-publish after this.
  void release() { state_.barrier.arrive_and_wait(); }

  int rank_;
  int num_ranks_;
  SharedState& state_;
  const CostModel& model_;
  CommStats stats_;
  double sim_now_ = 0.0;
  FaultInjector* injector_ = nullptr;
  std::uint64_t collective_index_ = 0;
  int fault_epoch_ = -1;
  /// Rounds the next publish bit-flips its payload (set by check_faults
  /// from a kCorrupt event, consumed by publish_and_sync).
  int pending_corrupt_sends_ = 0;
  /// Scratch for the corrupted copy (the caller's buffer is const and
  /// must be retransmittable untouched); never empty while published.
  std::vector<std::byte> corrupt_scratch_;
  /// The slot views allgatherv_slots() hands its reader.
  std::vector<std::span<const std::byte>> slot_scratch_;
};

/// Owns the simulated cluster: executes one rank program per rank on a
/// host thread pool (util::ThreadPool::run_cohort, which co-schedules all
/// ranks so the barrier protocol cannot starve), hands each a
/// Communicator, propagates the first failure, and waits for everything.
class Cluster {
 public:
  explicit Cluster(int num_ranks,
                   CostModelParams params = CostModelParams::aries());

  int num_ranks() const { return num_ranks_; }

  /// Run fn on every rank of `pool`; blocks until all ranks finish. If
  /// ranks throw, the others are aborted; when every recorded failure is a
  /// RankFailedError (rank deaths) one aggregated RankFailedError carrying
  /// the full set is thrown — so elastic recovery and fail-fast reporting
  /// see simultaneous multi-rank crashes — otherwise the lowest-rank
  /// exception is rethrown. The pool may be shared (across train() calls,
  /// or with the serving layer); ranks beyond its free capacity run on
  /// transient overflow threads, so any pool size is safe.
  void run(const std::function<void(Communicator&)>& fn,
           util::ThreadPool& pool);

  /// Convenience overload for one-shot callers: runs on a pool scoped to
  /// this call, sized one worker per rank.
  void run(const std::function<void(Communicator&)>& fn);

  /// Inject faults into every collective of subsequent run() calls (see
  /// comm/fault.hpp). Non-owning; pass nullptr to disable. A rank killed
  /// by an injected crash surfaces as RankFailedError from run(), with the
  /// surviving ranks stopped at their next barrier — never a deadlock.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

 private:
  int num_ranks_;
  CostModel model_;
  FaultInjector* injector_ = nullptr;
};

}  // namespace dynkge::comm
