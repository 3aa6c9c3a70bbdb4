#include "comm/fault.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace dynkge::comm {
namespace {

/// fetch_add for atomic<double> without relying on C++20 FP atomics.
void atomic_add(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

FaultKind kind_by_name(const std::string& name) {
  if (name == "crash") return FaultKind::kRankCrash;
  if (name == "transient") return FaultKind::kTransient;
  if (name == "straggler") return FaultKind::kStraggler;
  if (name == "corrupt") return FaultKind::kCorrupt;
  if (name == "hang") return FaultKind::kHang;
  throw std::invalid_argument(
      "FaultInjector: unknown fault kind '" + name +
      "' (expected crash|transient|straggler|corrupt|hang)");
}

/// Where an event fires, for error messages: "collective #12" or
/// "epoch 3".
std::string site_of(const FaultEvent& event) {
  if (event.epoch >= 0) return "epoch " + std::to_string(event.epoch);
  return "collective #" + std::to_string(event.collective_index);
}

}  // namespace

std::vector<RankFailedError::Failure> RankFailedError::sort_by_rank(
    std::vector<Failure> failures) {
  if (failures.empty()) {
    throw std::logic_error("RankFailedError: empty failure set");
  }
  std::sort(failures.begin(), failures.end(),
            [](const Failure& a, const Failure& b) { return a.rank < b.rank; });
  return failures;
}

std::string RankFailedError::describe(const std::vector<Failure>& failures) {
  if (failures.size() == 1) {
    return "rank " + std::to_string(failures.front().rank) + " failed: " +
           failures.front().what;
  }
  std::string ranks;
  for (const Failure& f : failures) {
    if (!ranks.empty()) ranks += ",";
    ranks += std::to_string(f.rank);
  }
  std::string message = "ranks " + ranks + " failed:";
  for (const Failure& f : failures) {
    message += " [rank " + std::to_string(f.rank) + "] " + f.what + ";";
  }
  message.pop_back();
  return message;
}

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kRankCrash:
      return "crash";
    case FaultKind::kTransient:
      return "transient";
    case FaultKind::kStraggler:
      return "straggler";
    case FaultKind::kCorrupt:
      return "corrupt";
    case FaultKind::kHang:
      return "hang";
  }
  return "?";
}

void FaultInjector::validate(const RetryPolicy& policy,
                             double collective_deadline) {
  if (policy.max_attempts < 1) {
    throw std::invalid_argument(
        "FaultInjector: retry limit must be >= 1 (--fault-retry-limit)");
  }
  if (!(policy.backoff_seconds > 0.0)) {
    throw std::invalid_argument(
        "FaultInjector: backoff base must be > 0 (--fault-backoff-base)");
  }
  if (collective_deadline < 0.0) {
    throw std::invalid_argument(
        "FaultInjector: collective deadline must be >= 0 "
        "(--collective-deadline)");
  }
}

FaultInjector::FaultInjector(std::vector<FaultEvent> schedule,
                             RetryPolicy policy, double collective_deadline)
    : policy_(policy), collective_deadline_(collective_deadline) {
  validate(policy_, collective_deadline_);
  for (const FaultEvent& event : schedule) {
    if (event.rank < 0) {
      throw std::invalid_argument("FaultInjector: negative rank");
    }
    if (event.collective_index >= kRankStride) {
      throw std::invalid_argument("FaultInjector: collective index too large");
    }
    if (event.kind == FaultKind::kHang && collective_deadline_ <= 0.0) {
      // Without a deadline a hang would never terminate on a real cluster;
      // the simulation refuses to schedule one it cannot detect.
      throw std::invalid_argument(
          "FaultInjector: a hang fault needs a deadline watchdog "
          "(--collective-deadline)");
    }
    if (event.epoch >= 0) {
      epoch_events_[key(event.rank,
                        static_cast<std::uint64_t>(event.epoch))] = {event, 0};
    } else {
      events_[key(event.rank, event.collective_index)] = {event, 0};
    }
  }
  // Assign one-shot slots after dedup (the maps keep only the last event
  // per address, matching the pre-elastic behavior).
  std::size_t slot = 0;
  for (auto& [address, scheduled] : events_) scheduled.slot = slot++;
  for (auto& [address, scheduled] : epoch_events_) scheduled.slot = slot++;
  fired_ = std::make_unique<std::atomic<bool>[]>(slot > 0 ? slot : 1);
}

std::vector<FaultEvent> FaultInjector::parse_spec(const std::string& spec) {
  std::vector<FaultEvent> schedule;
  std::stringstream events(spec);
  std::string item;
  while (std::getline(events, item, ',')) {
    if (item.empty()) continue;
    std::vector<std::string> parts;
    std::stringstream fields(item);
    std::string field;
    while (std::getline(fields, field, '@')) parts.push_back(field);
    const auto bad = [&](const std::string& why) {
      return std::invalid_argument("FaultInjector: bad fault spec '" + item +
                                   "' (--fault-spec): " + why);
    };
    const char* const kSyntax = "expected kind@rank@index[@param]";
    if (parts.size() < 3 || parts.size() > 4) throw bad(kSyntax);
    FaultEvent event;
    try {
      event.kind = kind_by_name(parts[0]);
      event.rank = std::stoi(parts[1]);
      if (!parts[2].empty() && parts[2][0] == 'e') {
        // Epoch-scoped address: "e2" = first collective of epoch 2.
        event.epoch = std::stoi(parts[2].substr(1));
        if (event.epoch < 0) {
          throw std::invalid_argument("negative epoch");
        }
      } else {
        event.collective_index = std::stoull(parts[2]);
      }
      if (parts.size() == 4) {
        if (event.kind == FaultKind::kHang) {
          // A hang has no parameter — it either completes or it doesn't.
          throw std::invalid_argument("hang takes no parameter");
        }
        if (event.kind == FaultKind::kStraggler) {
          event.delay_seconds = std::stod(parts[3]);
        } else {
          event.failures = std::stoi(parts[3]);
        }
      }
    } catch (const std::logic_error&) {  // invalid_argument, out_of_range
      throw bad(kSyntax);
    }
    if ((event.kind == FaultKind::kTransient ||
         event.kind == FaultKind::kCorrupt) &&
        event.failures < 1) {
      throw bad("the failure count must be >= 1");
    }
    if (event.kind == FaultKind::kStraggler &&
        !(std::isfinite(event.delay_seconds) && event.delay_seconds >= 0.0)) {
      throw bad("the straggler delay must be finite and >= 0");
    }
    schedule.push_back(event);
  }
  return schedule;
}

CollectiveFault FaultInjector::before_collective(int rank,
                                                std::uint64_t index,
                                                int epoch) {
  const Scheduled* hit = nullptr;
  if (!events_.empty()) {
    const auto it = events_.find(key(rank, index));
    if (it != events_.end()) hit = &it->second;
  }
  if (hit == nullptr && epoch >= 0 && !epoch_events_.empty()) {
    const auto it =
        epoch_events_.find(key(rank, static_cast<std::uint64_t>(epoch)));
    if (it != epoch_events_.end()) hit = &it->second;
  }
  if (hit == nullptr) return {};
  // One-shot: after elastic recovery the rank-local indices restart, and a
  // consumed event must not fire again on the rank that inherits the id.
  if (fired_[hit->slot].exchange(true, std::memory_order_relaxed)) {
    return {};
  }
  return fire(*hit, rank);
}

CollectiveFault FaultInjector::fire(const Scheduled& scheduled, int rank) {
  const FaultEvent& event = scheduled.event;
  switch (event.kind) {
    case FaultKind::kRankCrash: {
      crashes_.fetch_add(1, std::memory_order_relaxed);
      if (m_crashes_ != nullptr) m_crashes_->add(1);
      throw RankFailedError(rank, "injected crash at " + site_of(event));
    }
    case FaultKind::kTransient: {
      // The collective fails `failures` times; each failure costs one
      // backoff pause. The backoff is accounted against the injector, not
      // the training clock: a recovered transient fault must leave the
      // run's results (including modeled timings) byte-identical.
      if (event.failures >= policy_.max_attempts) {
        exhausted_.fetch_add(1, std::memory_order_relaxed);
        if (m_exhausted_ != nullptr) m_exhausted_->add(1);
        throw RankFailedError(
            rank, "transient fault at " + site_of(event) +
                      " persisted through " +
                      std::to_string(policy_.max_attempts) + " attempts");
      }
      double pause = policy_.backoff_seconds;
      double total = 0.0;
      for (int attempt = 0; attempt < event.failures; ++attempt) {
        total += pause;
        pause *= policy_.backoff_multiplier;
      }
      transients_.fetch_add(1, std::memory_order_relaxed);
      retries_.fetch_add(static_cast<std::uint64_t>(event.failures),
                         std::memory_order_relaxed);
      atomic_add(backoff_seconds_, total);
      if (m_transients_ != nullptr) m_transients_->add(1);
      if (m_retries_ != nullptr) {
        m_retries_->add(static_cast<std::uint64_t>(event.failures));
      }
      return {};
    }
    case FaultKind::kStraggler: {
      if (collective_deadline_ > 0.0 &&
          event.delay_seconds > collective_deadline_) {
        // Pathological straggler: past the per-collective budget it is
        // indistinguishable from a hang, so the watchdog converts it into
        // a deterministic rank death instead of stalling the cluster.
        watchdog_trips_.fetch_add(1, std::memory_order_relaxed);
        if (m_watchdog_ != nullptr) m_watchdog_->add(1);
        throw RankFailedError(
            rank, "watchdog: straggler at " + site_of(event) + " stalled " +
                      std::to_string(event.delay_seconds) +
                      " s, past the collective deadline of " +
                      std::to_string(collective_deadline_) + " s");
      }
      stragglers_.fetch_add(1, std::memory_order_relaxed);
      if (m_stragglers_ != nullptr) m_stragglers_->add(1);
      return {event.delay_seconds, 0};
    }
    case FaultKind::kCorrupt: {
      // The Communicator's checksum loop does the flipping, detection and
      // retransmit accounting; here we only hand it the round count.
      return {0.0, event.failures};
    }
    case FaultKind::kHang: {
      watchdog_trips_.fetch_add(1, std::memory_order_relaxed);
      if (m_watchdog_ != nullptr) m_watchdog_->add(1);
      throw RankFailedError(
          rank, "watchdog: collective hung at " + site_of(event) +
                    " past the collective deadline of " +
                    std::to_string(collective_deadline_) + " s");
    }
  }
  return {};
}

void FaultInjector::record_corrupted_payload() {
  corrupted_payloads_.fetch_add(1, std::memory_order_relaxed);
  if (m_corrupted_ != nullptr) m_corrupted_->add(1);
}

void FaultInjector::record_corruption_detected() {
  corruptions_detected_.fetch_add(1, std::memory_order_relaxed);
  if (m_detected_ != nullptr) m_detected_->add(1);
}

void FaultInjector::record_retransmit(double backoff_seconds) {
  retransmits_.fetch_add(1, std::memory_order_relaxed);
  retries_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(backoff_seconds_, backoff_seconds);
  if (m_retransmits_ != nullptr) m_retransmits_->add(1);
  if (m_retries_ != nullptr) m_retries_->add(1);
}

void FaultInjector::record_retransmit_exhausted() {
  exhausted_.fetch_add(1, std::memory_order_relaxed);
  if (m_exhausted_ != nullptr) m_exhausted_->add(1);
}

FaultCounters FaultInjector::counters() const {
  FaultCounters counters;
  counters.crashes = crashes_.load(std::memory_order_relaxed);
  counters.transients = transients_.load(std::memory_order_relaxed);
  counters.stragglers = stragglers_.load(std::memory_order_relaxed);
  counters.retries = retries_.load(std::memory_order_relaxed);
  counters.exhausted = exhausted_.load(std::memory_order_relaxed);
  counters.backoff_seconds = backoff_seconds_.load(std::memory_order_relaxed);
  counters.corrupted_payloads =
      corrupted_payloads_.load(std::memory_order_relaxed);
  counters.corruptions_detected =
      corruptions_detected_.load(std::memory_order_relaxed);
  counters.retransmits = retransmits_.load(std::memory_order_relaxed);
  counters.watchdog_trips = watchdog_trips_.load(std::memory_order_relaxed);
  return counters;
}

void FaultInjector::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics == nullptr) {
    m_crashes_ = m_transients_ = m_stragglers_ = m_retries_ = m_exhausted_ =
        m_corrupted_ = m_detected_ = m_retransmits_ = m_watchdog_ = nullptr;
    return;
  }
  m_crashes_ = &metrics->counter("comm.fault.crashes");
  m_transients_ = &metrics->counter("comm.fault.transients");
  m_stragglers_ = &metrics->counter("comm.fault.stragglers");
  m_retries_ = &metrics->counter("comm.fault.retries");
  m_exhausted_ = &metrics->counter("comm.fault.retry_exhausted");
  m_corrupted_ = &metrics->counter("comm.integrity.corrupted_payloads");
  m_detected_ = &metrics->counter("comm.integrity.corruptions_detected");
  m_retransmits_ = &metrics->counter("comm.integrity.retransmits");
  m_watchdog_ = &metrics->counter("comm.integrity.watchdog_trips");
}

}  // namespace dynkge::comm
