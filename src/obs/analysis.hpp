// Offline analysis of a training run's telemetry: joins the per-rank
// Chrome trace spans (--trace-out) with the per-epoch JSONL event stream
// (--events-out) to answer the two questions the dashboards cannot:
//
//   1. Critical path — which rank bounded each epoch (the straggler whose
//      "epoch" span ran longest), which collective it spent that time in,
//      the comm-vs-compute fraction per rank, and the straggler skew
//      (slowest / mean epoch time across ranks).
//
//   2. Strategy audit — replay every CommModeSelector probe: the event
//      stream carries the modeled all-gather cost the probe measured and
//      the all-reduce baseline it was compared against
//      (probe_baseline_seconds), so each switch/stay decision can be
//      re-derived and flagged when it contradicts the recorded numbers.
//      The trace adds a wall-clock cross-check: measured
//      exchange.allgather vs exchange.allreduce span time around the
//      probe.
//
// Everything is deterministic in its inputs: the same trace + events pair
// produces byte-identical to_json() output (golden-tested), so reports
// can be diffed across runs. Exposed through `dynkge analyze`.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace dynkge::obs {

/// One complete ("X") span from the trace file. Times are microseconds on
/// the trace's own monotonic timebase.
struct SpanRecord {
  std::string name;
  int tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
};

/// One parsed line of the JSONL event stream (one per epoch per rank).
struct EpochEvent {
  int epoch = 0;
  int rank = 0;
  /// The supervised attempt that logged it: how many recovery lines
  /// precede it in the stream (0 in a run that never recovered).
  int attempt = 0;
  std::string comm_mode;
  std::string transport;
  bool probe = false;
  bool switched_to_allgather = false;
  double comm_seconds = 0.0;
  double sim_seconds = 0.0;
  /// The all-reduce cost a probe is compared against; -1 until the
  /// selector has recorded one.
  double probe_baseline_seconds = -1.0;
};

/// Per-rank trace profile of one epoch (all from span wall time).
struct RankEpochProfile {
  int rank = 0;
  double epoch_seconds = 0.0;     ///< duration of the rank's "epoch" span
  double comm_seconds = 0.0;      ///< union of its exchange.* intervals
  double comm_fraction = 0.0;     ///< comm_seconds / epoch_seconds
  std::string top_collective;     ///< busiest exchange.* name, "" if none
  double top_collective_seconds = 0.0;
  /// Union seconds per collective name (exchange.allreduce, ...).
  std::map<std::string, double> collective_seconds;
};

struct EpochAnalysis {
  int epoch = 0;
  int critical_rank = 0;            ///< rank with the longest epoch span
  double critical_seconds = 0.0;
  std::string blocking_collective;  ///< its busiest collective, "" if none
  double blocking_seconds = 0.0;
  double straggler_skew = 1.0;      ///< max / mean epoch span duration
  double comm_fraction_mean = 0.0;  ///< mean over ranks
  std::vector<RankEpochProfile> ranks;
};

/// One CommModeSelector probe decision, re-derived from the recorded
/// numbers. `contradicted` means the decision in the log disagrees with
/// the comparison of the logged costs — a selector bug or corrupt log.
struct ProbeAudit {
  int epoch = 0;
  double probe_comm_seconds = 0.0;     ///< modeled all-gather cost (event)
  double baseline_comm_seconds = -1.0; ///< modeled all-reduce baseline
  bool switched = false;               ///< decision recorded in the log
  bool expected_switch = false;        ///< what the costs say it should be
  bool contradicted = false;
  double trace_allgather_seconds = -1.0;  ///< wall clock, -1 without trace
  double trace_allreduce_seconds = -1.0;
  bool wall_clock_agrees = true;  ///< wall-clock ordering matches modeled
};

struct AnalysisReport {
  int num_ranks = 0;
  int num_epochs = 0;
  std::string comm_mode;
  std::vector<EpochAnalysis> epochs;
  std::vector<ProbeAudit> audit;
  int contradicted_decisions = 0;

  /// Deterministic machine-readable report (byte-stable per input pair).
  std::string to_json() const;
  /// Human-readable tables (same numbers, fixed-width columns).
  std::string to_table() const;
};

/// Total length of the union of `intervals` clipped to [lo, hi] — the
/// span-interval primitive the per-epoch comm accounting is built on.
/// Overlapping and nested intervals count once; empty input is 0.
double interval_union(std::vector<std::pair<double, double>> intervals,
                      double lo, double hi);

// -- The training-telemetry contract (DESIGN.md §11) ------------------------
// These loaders and check_tracks are its one statement; `dynkge analyze`
// runs all three before analysing. Violations throw std::runtime_error
// naming the file (and, for events, the line).

/// Parse a TraceWriter JSON file; `track_labels`, when given, receives the
/// thread_name label of each tid. Throws std::runtime_error on input that
/// breaks the trace half of the contract.
std::vector<SpanRecord> load_trace_spans(
    const std::string& path,
    std::map<int, std::string>* track_labels = nullptr);

/// Parse an EventLog JSONL file of one training run and return the epoch
/// events that stand after its recoveries, by (epoch, rank). Throws
/// std::runtime_error on input that breaks the event half of the contract.
std::vector<EpochEvent> load_events(const std::string& path);

/// The checks that join a training run's trace with its events: spans
/// nest on every track, and each rank in `events` has a labelled "rank N"
/// track carrying spans. Serve traces, whose concurrent serve.* spans
/// share one unlabelled track, skip it.
void check_tracks(const std::vector<SpanRecord>& spans,
                  const std::map<int, std::string>& track_labels,
                  const std::vector<EpochEvent>& events,
                  const std::string& trace_path);

/// Join spans and events into the full report. Epoch numbering comes from
/// the events. Within each attempt (a recovery.rebuild span ends one), a
/// rank's i-th "epoch" span (by start time) pairs with its i-th event of
/// that attempt; a span left over (an aborted epoch) stays unpaired. An
/// epoch is analysed over the ranks that logged it, and left out of
/// `epochs` if one of them has no span (e.g. a truncated trace) — the
/// strategy audit, which needs only the events, still covers it.
AnalysisReport analyze(const std::vector<SpanRecord>& spans,
                       const std::vector<EpochEvent>& events);

}  // namespace dynkge::obs
