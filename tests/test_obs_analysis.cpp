// obs/analysis: span-interval math on overlapping/nested spans, the
// critical-path join, the strategy audit's contradiction flagging, and the
// golden-file contract — a recorded 4-rank trace+events pair must analyze
// to byte-identical JSON forever (the report is diffed across runs).
#include "obs/analysis.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

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
  std::ifstream recorded(data_path("analyze_events.jsonl"));
  std::string line;
  ASSERT_TRUE(std::getline(recorded, line));
  const std::string key = "\"probe_baseline_seconds\":-1,";
  const std::size_t at = line.find(key);
  ASSERT_NE(at, std::string::npos);

  const std::string whole = ::testing::TempDir() + "whole_events.jsonl";
  std::ofstream(whole) << line << "\n";
  ASSERT_EQ(load_events(whole).size(), 1u);
  EXPECT_EQ(load_events(whole)[0].probe_baseline_seconds, -1.0);

  const std::string older = ::testing::TempDir() + "older_events.jsonl";
  std::ofstream(older) << line.erase(at, key.size()) << "\n";
  try {
    load_events(older);
    FAIL() << "an event without probe_baseline_seconds was accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("probe_baseline_seconds"),
              std::string::npos)
        << error.what();
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
