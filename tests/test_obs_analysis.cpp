// obs/analysis: span-interval math on overlapping/nested spans, the
// critical-path join (per attempt across elastic recoveries), the strategy
// audit's contradiction flagging, the telemetry contract's loaders —
// recovery lines, foreign event kinds, and hostile bytes that must load or
// throw std::runtime_error — and the golden-file contract: a recorded
// 4-rank trace+events pair must analyze to byte-identical JSON forever
// (the report is diffed across runs). Each rule's CLI rejection is a
// cli_analyze_rejects_* ctest (analyze_rejects.cmake).
#include "obs/analysis.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace dynkge::obs {
namespace {

std::string data_path(const std::string& name) {
  return std::string(DYNKGE_TEST_DATA_DIR) + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(IntervalUnion, EmptyAndSingle) {
  EXPECT_EQ(interval_union({}, 0.0, 100.0), 0.0);
  EXPECT_EQ(interval_union({{10.0, 30.0}}, 0.0, 100.0), 20.0);
}

TEST(IntervalUnion, DisjointSum) {
  EXPECT_EQ(interval_union({{0.0, 10.0}, {20.0, 25.0}}, 0.0, 100.0), 15.0);
}

TEST(IntervalUnion, OverlappingCountsOnce) {
  // [0,10) and [5,15) overlap on [5,10): union is 15, not 20.
  EXPECT_EQ(interval_union({{0.0, 10.0}, {5.0, 15.0}}, 0.0, 100.0), 15.0);
}

TEST(IntervalUnion, NestedCountsOnce) {
  // A span fully inside another (exchange span nested in an epoch span
  // nested in a recovery span) adds nothing.
  EXPECT_EQ(interval_union({{0.0, 50.0}, {10.0, 20.0}, {12.0, 14.0}}, 0.0,
                           100.0),
            50.0);
}

TEST(IntervalUnion, UnsortedInput) {
  // [20,30) u [25,40) merge to [20,40); plus the disjoint [0,10).
  EXPECT_EQ(interval_union({{20.0, 30.0}, {0.0, 10.0}, {25.0, 40.0}}, 0.0,
                           100.0),
            30.0);
}

TEST(IntervalUnion, ClipsToWindow) {
  // Only the part inside [lo, hi) counts: spans from a neighbouring epoch
  // that merely touch the window must not inflate its comm time.
  EXPECT_EQ(interval_union({{-10.0, 5.0}, {95.0, 120.0}}, 0.0, 100.0),
            10.0);
  EXPECT_EQ(interval_union({{0.0, 100.0}}, 40.0, 60.0), 20.0);
  // Entirely outside.
  EXPECT_EQ(interval_union({{200.0, 300.0}}, 0.0, 100.0), 0.0);
}

// -- analyze() on hand-built inputs ----------------------------------------

EpochEvent make_event(int epoch, int rank, const std::string& transport,
                      double comm_seconds) {
  EpochEvent event;
  event.epoch = epoch;
  event.rank = rank;
  event.comm_mode = "dynamic";
  event.transport = transport;
  event.comm_seconds = comm_seconds;
  event.sim_seconds = comm_seconds * 2.0;
  return event;
}

SpanRecord make_span(const std::string& name, int tid, double ts_us,
                     double dur_us) {
  return SpanRecord{name, tid, ts_us, dur_us};
}

TEST(Analyze, CriticalPathPicksSlowestRankAndItsCollective) {
  // Two ranks, one epoch. Rank 1's epoch span is longer and dominated by
  // all-reduce time; rank 0 is mostly compute.
  const std::vector<SpanRecord> spans = {
      make_span("epoch", 0, 0.0, 100.0),
      make_span("exchange.allreduce", 0, 10.0, 20.0),
      make_span("epoch", 1, 0.0, 160.0),
      make_span("exchange.allreduce", 1, 10.0, 60.0),
      make_span("exchange.allgather", 1, 80.0, 10.0),
  };
  const std::vector<EpochEvent> events = {
      make_event(0, 0, "allreduce", 1e-3),
      make_event(0, 1, "allreduce", 1e-3),
  };
  const AnalysisReport report = analyze(spans, events);
  ASSERT_EQ(report.epochs.size(), 1u);
  const EpochAnalysis& epoch = report.epochs[0];
  EXPECT_EQ(epoch.critical_rank, 1);
  EXPECT_DOUBLE_EQ(epoch.critical_seconds, 160.0 / 1e6);
  EXPECT_EQ(epoch.blocking_collective, "exchange.allreduce");
  EXPECT_DOUBLE_EQ(epoch.blocking_seconds, 60.0 / 1e6);
  // skew = max / mean = 160 / 130.
  EXPECT_DOUBLE_EQ(epoch.straggler_skew, 160.0 / 130.0);
  ASSERT_EQ(epoch.ranks.size(), 2u);
  EXPECT_DOUBLE_EQ(epoch.ranks[0].comm_fraction, 20.0 / 100.0);
  EXPECT_DOUBLE_EQ(epoch.ranks[1].comm_fraction, 70.0 / 160.0);
}

TEST(Analyze, SecondEpochSpansPairByOrder) {
  // Per rank, the i-th "epoch" span belongs to the i-th event: collective
  // spans attribute to the epoch whose interval contains them.
  const std::vector<SpanRecord> spans = {
      make_span("epoch", 0, 0.0, 100.0),
      make_span("exchange.allreduce", 0, 0.0, 50.0),
      make_span("epoch", 0, 100.0, 100.0),
      make_span("exchange.allgather", 0, 150.0, 25.0),
  };
  const std::vector<EpochEvent> events = {
      make_event(0, 0, "allreduce", 1e-3),
      make_event(1, 0, "allgather", 1e-3),
  };
  const AnalysisReport report = analyze(spans, events);
  ASSERT_EQ(report.epochs.size(), 2u);
  EXPECT_EQ(report.epochs[0].blocking_collective, "exchange.allreduce");
  EXPECT_EQ(report.epochs[1].blocking_collective, "exchange.allgather");
  EXPECT_DOUBLE_EQ(report.epochs[1].comm_fraction_mean, 0.25);
}

TEST(Analyze, TruncatedTraceSkipsEpochButAuditSurvives) {
  // Only epoch 0 has spans; epoch 1 (the probe) is missing from the
  // trace. The epochs table shrinks, the audit still runs on the events.
  const std::vector<SpanRecord> spans = {
      make_span("epoch", 0, 0.0, 100.0),
  };
  std::vector<EpochEvent> events = {
      make_event(0, 0, "allreduce", 4e-3),
      make_event(1, 0, "allgather", 1e-3),
  };
  events[1].probe = true;
  events[1].probe_baseline_seconds = 4e-3;
  events[1].switched_to_allgather = true;
  const AnalysisReport report = analyze(spans, events);
  EXPECT_EQ(report.num_epochs, 2);
  EXPECT_EQ(report.epochs.size(), 1u);
  ASSERT_EQ(report.audit.size(), 1u);
  EXPECT_TRUE(report.audit[0].expected_switch);
  EXPECT_FALSE(report.audit[0].contradicted);
  EXPECT_EQ(report.contradicted_decisions, 0);
}

TEST(Analyze, FlagsDecisionContradictedByMeasurements) {
  // The log claims the selector switched although the probe was SLOWER
  // than its baseline — the audit must flag it.
  std::vector<EpochEvent> events = {
      make_event(0, 0, "allreduce", 1e-3),
      make_event(1, 0, "allgather", 5e-3),
  };
  events[1].probe = true;
  events[1].probe_baseline_seconds = 1e-3;
  events[1].switched_to_allgather = true;  // contradicts the costs
  const AnalysisReport report = analyze({}, events);
  ASSERT_EQ(report.audit.size(), 1u);
  EXPECT_FALSE(report.audit[0].expected_switch);
  EXPECT_TRUE(report.audit[0].switched);
  EXPECT_TRUE(report.audit[0].contradicted);
  EXPECT_EQ(report.contradicted_decisions, 1);
}

// -- loaders + golden file -------------------------------------------------

TEST(AnalyzeLoaders, RejectsMalformedInputs) {
  EXPECT_THROW(load_trace_spans("/nonexistent/trace.json"),
               std::runtime_error);
  EXPECT_THROW(load_events("/nonexistent/events.jsonl"),
               std::runtime_error);

  const std::string bad_trace = ::testing::TempDir() + "bad_trace.json";
  std::ofstream(bad_trace) << "{\"traceEvents\":[],\"schema_version\":99}";
  EXPECT_THROW(load_trace_spans(bad_trace), std::runtime_error);

  const std::string bad_events = ::testing::TempDir() + "bad_events.jsonl";
  std::ofstream(bad_events) << "{\"epoch\":0}\n";  // missing required keys
  EXPECT_THROW(load_events(bad_events), std::runtime_error);
}

TEST(AnalyzeLoaders, RequiresProbeBaselineField) {
  // The trainer writes probe_baseline_seconds into every event; a log
  // without it is rejected instead of having its baseline guessed.
  std::string stream = slurp(data_path("analyze_events.jsonl"));
  const std::string key = "\"probe_baseline_seconds\":-1,";
  const std::size_t at = stream.find(key);
  ASSERT_NE(at, std::string::npos);

  const std::string whole = ::testing::TempDir() + "whole_events.jsonl";
  std::ofstream(whole) << stream;
  ASSERT_EQ(load_events(whole).size(), 16u);
  EXPECT_EQ(load_events(whole)[0].probe_baseline_seconds, -1.0);

  const std::string older = ::testing::TempDir() + "older_events.jsonl";
  std::ofstream(older) << stream.erase(at, key.size());
  try {
    load_events(older);
    FAIL() << "an event without probe_baseline_seconds was accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("probe_baseline_seconds"),
              std::string::npos)
        << error.what();
  }
}

/// The recorded run's first event line (epoch 0, rank 1, all-reduce),
/// renumbered.
std::string event_line(int epoch, int rank) {
  std::ifstream recorded(data_path("analyze_events.jsonl"));
  std::string line;
  std::getline(recorded, line);
  const std::string ids = "\"epoch\":0,\"rank\":1,";
  const std::size_t at = line.find(ids);
  EXPECT_NE(at, std::string::npos);
  return line.replace(at, ids.size(),
                      "\"epoch\":" + std::to_string(epoch) +
                          ",\"rank\":" + std::to_string(rank) + ",") +
         "\n";
}

const std::string kRecovery =
    "{\"schema_version\":1,\"event\":\"recovery\",\"failed_ranks\":[1],"
    "\"old_world\":2,\"new_world\":1,\"resume_epoch\":1,"
    "\"rebuild_seconds\":0.001}\n";

TEST(AnalyzeLoaders, RecoveryDropsSupersededEpochs) {
  // Both ranks logged epoch 1 before rank 1 died; the recovery resumes
  // from epoch 1, and rank 0 alone logs it again. The replayed event
  // stands, the superseded ones go, and the shrunk world runs epochs 1-2.
  const std::string path = ::testing::TempDir() + "superseded.jsonl";
  std::ofstream(path) << event_line(0, 0) << event_line(0, 1)
                      << event_line(1, 0) << event_line(1, 1) << kRecovery
                      << event_line(1, 0) << event_line(2, 0);
  const std::vector<EpochEvent> events = load_events(path);
  ASSERT_EQ(events.size(), 4u);
  const int expected[][3] = {{0, 0, 0}, {0, 1, 0}, {1, 0, 1}, {2, 0, 1}};
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].epoch, expected[i][0]) << i;
    EXPECT_EQ(events[i].rank, expected[i][1]) << i;
    EXPECT_EQ(events[i].attempt, expected[i][2]) << i;
  }

  // Without the recovery line the same lines are duplicates; after it, a
  // rank outside the shrunk world is rejected.
  std::ofstream(path) << event_line(0, 0) << event_line(0, 1)
                      << event_line(1, 0) << event_line(1, 1)
                      << event_line(1, 0);
  EXPECT_THROW(load_events(path), std::runtime_error);
  std::ofstream(path) << event_line(0, 0) << event_line(0, 1) << kRecovery
                      << event_line(1, 0) << event_line(1, 1);
  EXPECT_THROW(load_events(path), std::runtime_error);
}

TEST(AnalyzeLoaders, RejectsEventsOfOtherStreams) {
  // Serving and federated runs write their own event kinds; analyze reads
  // only a training stream.
  const std::string path = ::testing::TempDir() + "other_stream.jsonl";
  std::ofstream(path) << event_line(0, 0)
                      << "{\"schema_version\":1,\"event\":\"delta_batch\"}\n";
  try {
    load_events(path);
    FAIL() << "a delta_batch line was accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(path + ":2: "),
              std::string::npos)
        << error.what();
  }
}

TEST(Analyze, RebuildSpanStartsANewAttempt) {
  // Rank 0 ran epoch 1 twice: aborted (short) before the rebuild, then
  // replayed after it. Its epoch-1 event belongs to the second attempt
  // and pairs with the replayed span; the aborted span stays unpaired.
  const std::vector<SpanRecord> spans = {
      make_span("epoch", 0, 0.0, 100.0),
      make_span("epoch", 1, 0.0, 110.0),
      make_span("epoch", 0, 100.0, 5.0),
      make_span("epoch", 1, 110.0, 5.0),
      make_span("recovery.rebuild", 2, 120.0, 10.0),
      make_span("epoch", 0, 130.0, 90.0),
      make_span("epoch", 0, 220.0, 80.0),
  };
  std::vector<EpochEvent> events = {
      make_event(0, 0, "allreduce", 1e-3), make_event(0, 1, "allreduce", 1e-3),
      make_event(1, 0, "allreduce", 1e-3), make_event(2, 0, "allreduce", 1e-3)};
  events[2].attempt = events[3].attempt = 1;
  const AnalysisReport report = analyze(spans, events);
  EXPECT_EQ(report.num_ranks, 2);
  ASSERT_EQ(report.epochs.size(), 3u);
  EXPECT_DOUBLE_EQ(report.epochs[0].critical_seconds, 110.0 / 1e6);
  ASSERT_EQ(report.epochs[1].ranks.size(), 1u);  // the shrunk world
  EXPECT_DOUBLE_EQ(report.epochs[1].critical_seconds, 90.0 / 1e6);
  EXPECT_DOUBLE_EQ(report.epochs[2].critical_seconds, 80.0 / 1e6);
}

// -- hostile bytes: every input loads or throws std::runtime_error ---------

/// The committed 4-rank pair, loaded once; each fuzz input replaces one
/// side and goes through that side's loader, check_tracks and analyze. A
/// rejection must be a std::runtime_error: anything else escapes and
/// fails the test, and UB trips the sanitizers.
class AnalyzeFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    trace_ = slurp(data_path("analyze_trace.json"));
    events_ = slurp(data_path("analyze_events.jsonl"));
    spans_ = load_trace_spans(data_path("analyze_trace.json"), &labels_);
    epoch_events_ = load_events(data_path("analyze_events.jsonl"));
  }

  void trace_loads_or_throw(const std::string& bytes) const {
    const std::string path = ::testing::TempDir() + "fuzz_trace.json";
    std::ofstream(path, std::ios::binary) << bytes;
    try {
      std::map<int, std::string> labels;
      const auto spans = load_trace_spans(path, &labels);
      check_tracks(spans, labels, epoch_events_, path);
      analyze(spans, epoch_events_);
    } catch (const std::runtime_error&) {
    }
  }

  void events_load_or_throw(const std::string& bytes) const {
    const std::string path = ::testing::TempDir() + "fuzz_events.jsonl";
    std::ofstream(path, std::ios::binary) << bytes;
    try {
      const auto events = load_events(path);
      check_tracks(spans_, labels_, events, data_path("analyze_trace.json"));
      analyze(spans_, events);
    } catch (const std::runtime_error&) {
    }
  }

  std::string trace_, events_;
  std::vector<SpanRecord> spans_;
  std::map<int, std::string> labels_;
  std::vector<EpochEvent> epoch_events_;
};

TEST_F(AnalyzeFuzz, TruncationLoadsOrThrows) {
  // Every cut of the event stream. The trace is cut at every byte of its
  // first 4 KiB (the metadata records and the first spans) and its last
  // 256 bytes (the last span and the trailer), and at a stride through
  // the middle, which repeats the same span record: each cut costs a
  // parse of its prefix.
  for (std::size_t cut = 0; cut <= events_.size(); ++cut) {
    events_load_or_throw(events_.substr(0, cut));
  }
  constexpr std::size_t kHead = 4096, kTail = 256, kStride = 61;
  for (std::size_t cut = 0; cut <= trace_.size(); ++cut) {
    if (cut > kHead && cut + kTail < trace_.size() && cut % kStride != 0) {
      continue;
    }
    trace_loads_or_throw(trace_.substr(0, cut));
  }
}

TEST_F(AnalyzeFuzz, SeededByteMutationsLoadOrThrow) {
  util::Rng rng(17);
  for (int i = 0; i < 4000; ++i) {
    const bool in_events = i % 4 != 0;  // trace inputs cost a full parse
    std::string bytes = in_events ? events_ : trace_;
    const std::size_t byte = rng.next_below(bytes.size());
    bytes[byte] = static_cast<char>(rng.next_below(256));
    if (in_events) {
      events_load_or_throw(bytes);
    } else {
      trace_loads_or_throw(bytes);
    }
  }
}

TEST(AnalyzeGolden, RecordedFourRankRunReproducesByteForByte) {
  const auto spans = load_trace_spans(data_path("analyze_trace.json"));
  const auto events = load_events(data_path("analyze_events.jsonl"));
  ASSERT_FALSE(spans.empty());
  ASSERT_EQ(events.size(), 16u);  // 4 epochs x 4 ranks

  const AnalysisReport report = analyze(spans, events);
  EXPECT_EQ(report.num_ranks, 4);
  EXPECT_EQ(report.num_epochs, 4);
  EXPECT_EQ(report.contradicted_decisions, 0);

  // `dynkge analyze --json --out` writes to_json() + '\n'; the golden
  // file was recorded through exactly that path.
  const std::string golden = slurp(data_path("analyze_golden.json"));
  EXPECT_EQ(report.to_json() + "\n", golden)
      << "analysis output drifted from the recorded golden report";
}

}  // namespace
}  // namespace dynkge::obs
