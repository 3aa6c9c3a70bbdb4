// EventLog + the trainer's per-epoch event stream: every real run's
// artifacts meet the telemetry contract (obs/analysis loaders) —
// clean, elastic and degraded runs alike — probe tagging replays the DRS
// decision, and the zero-cost guarantee holds: telemetry must not change
// training results by a single bit.
#include "obs/events.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "comm/fault.hpp"
#include "core/trainer.hpp"
#include "kge/synthetic.hpp"
#include "obs/analysis.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace dynkge::obs {
namespace {

using dynkge::util::JsonValue;
using dynkge::util::parse_json;

const kge::Dataset& tiny_dataset() {
  static const kge::Dataset dataset = kge::generate_synthetic([] {
    kge::SyntheticSpec spec;
    spec.num_entities = 200;
    spec.num_relations = 16;
    spec.num_triples = 2000;
    spec.num_latent_types = 4;
    spec.seed = 7;
    return spec;
  }());
  return dataset;
}

/// A rank-local collective index that lands in epoch 1's snapshot on
/// rank 1 under fast_config(2) with three epochs: after both ranks logged
/// epoch 1, before its snapshot is published.
constexpr const char* kCrashAfterEpoch1Logged = "crash@1@32";

core::TrainConfig fast_config(int nodes) {
  core::TrainConfig config;
  config.embedding_rank = 8;
  config.num_nodes = nodes;
  config.batch_size = 200;
  config.max_epochs = 5;
  config.compute_final_metrics = false;
  config.seed = 4242;
  config.strategy = core::StrategyConfig::drs_1bit(2);
  config.strategy.dynamic_probe_interval = 2;
  return config;
}

std::vector<JsonValue> read_jsonl(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::vector<JsonValue> events;
  std::string line;
  while (std::getline(in, line)) {
    EXPECT_FALSE(line.empty());
    events.push_back(parse_json(line));  // throws on malformed lines
  }
  return events;
}

TEST(EventLog, WritesOneLinePerEvent) {
  const std::string path = ::testing::TempDir() + "event_log_test.jsonl";
  {
    EventLog log(path);
    log.write_line("{\"a\":1}");
    log.write_line("{\"b\":2}");
    EXPECT_EQ(log.lines_written(), 2u);
    log.flush();
  }
  const auto events = read_jsonl(path);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at("a").number, 1.0);
  EXPECT_EQ(events[1].at("b").number, 2.0);
  std::remove(path.c_str());
}

TEST(EventLog, ThrowsWhenPathUnwritable) {
  EXPECT_THROW(EventLog("/nonexistent-dir/events.jsonl"),
               std::runtime_error);
}

TEST(EventStream, OneSchemaValidEventPerEpochAndRank) {
  const std::string path = ::testing::TempDir() + "train_events.jsonl";
  core::TrainConfig config = fast_config(2);
  {
    EventLog events(path);
    config.telemetry.events = &events;
    const auto report =
        core::DistributedTrainer(tiny_dataset(), config).train();
    EXPECT_EQ(events.lines_written(),
              static_cast<std::uint64_t>(report.epochs) * 2);
  }

  // The contract: every key with its type, keep_rate in [0, 1], probes on
  // all-gather, and one event per (epoch, rank) over contiguous epochs.
  const std::vector<EpochEvent> loaded = load_events(path);
  ASSERT_EQ(loaded.size(), 10u);  // 5 epochs x 2 ranks
  std::set<int> epochs, ranks;
  for (const EpochEvent& event : loaded) {
    epochs.insert(event.epoch);
    ranks.insert(event.rank);
  }
  EXPECT_EQ(epochs, (std::set<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(ranks, (std::set<int>{0, 1}));

  const auto events = read_jsonl(path);
  for (const auto& event : events) {
    EXPECT_EQ(event.at("comm_mode").string, "dynamic");
    EXPECT_EQ(event.at("quant").string, "1-bit");
    EXPECT_EQ(event.at("selection").string, "random-selection");
    EXPECT_GT(event.at("bytes_on_wire").number, 0.0);
    EXPECT_GE(event.at("sim_seconds").number,
              event.at("comm_seconds").number);
  }

  // With probe interval 2, epoch 2 is the first probe; both ranks must
  // report the identical decision (they feed identical allreduced times).
  std::set<bool> probe_at_2;
  for (const auto& event : events) {
    if (static_cast<int>(event.at("epoch").number) == 2) {
      EXPECT_TRUE(event.at("probe").boolean);
      probe_at_2.insert(event.at("switched_to_allgather").boolean);
    }
  }
  EXPECT_EQ(probe_at_2.size(), 1u);
  std::remove(path.c_str());
}

TEST(EventStream, SampleSelectionCountsAppearWhenActive) {
  const std::string path = ::testing::TempDir() + "train_events_ss.jsonl";
  core::TrainConfig config = fast_config(2);
  config.max_epochs = 2;
  config.strategy = core::StrategyConfig::rs_1bit_rp_ss(4, 1);
  {
    EventLog events(path);
    config.telemetry.events = &events;
    core::DistributedTrainer(tiny_dataset(), config).train();
  }
  for (const auto& event : read_jsonl(path)) {
    // 4 candidates scored per positive, 1 kept: scored = 4 * kept.
    const double scored = event.at("ss_candidates_scored").number;
    const double kept = event.at("ss_candidates_kept").number;
    EXPECT_GT(kept, 0.0);
    EXPECT_EQ(scored, 4.0 * kept);
  }
  std::remove(path.c_str());
}

// The observability contract: enabling every sink changes nothing about
// the training result — embeddings are byte-identical, epoch counts and
// losses equal. Telemetry only reads state and never touches the RNGs.
TEST(EventStream, TelemetryDoesNotChangeResults) {
  const std::string path = ::testing::TempDir() + "train_events_det.jsonl";
  const std::string trace_path = ::testing::TempDir() + "train_trace_det.json";

  core::TrainConfig plain = fast_config(2);
  plain.strategy = core::StrategyConfig::drs_1bit_rp_ss(4, 1);
  plain.strategy.dynamic_probe_interval = 2;
  const auto baseline =
      core::DistributedTrainer(tiny_dataset(), plain).train();

  MetricsRegistry metrics;
  TraceWriter trace;
  core::TrainConfig instrumented = plain;
  {
    EventLog events(path);
    instrumented.telemetry.metrics = &metrics;
    instrumented.telemetry.trace = &trace;
    instrumented.telemetry.events = &events;
    const auto traced =
        core::DistributedTrainer(tiny_dataset(), instrumented).train();

    // sim_seconds is part-measured (per-thread compute) and varies run to
    // run with or without telemetry, so it is not compared; everything
    // derived from the model, the RNGs, or the modeled comm clock must
    // match exactly.
    EXPECT_EQ(baseline.epochs, traced.epochs);
    ASSERT_EQ(baseline.epoch_log.size(), traced.epoch_log.size());
    for (std::size_t i = 0; i < baseline.epoch_log.size(); ++i) {
      EXPECT_EQ(baseline.epoch_log[i].mean_loss,
                traced.epoch_log[i].mean_loss);
      EXPECT_EQ(baseline.epoch_log[i].val_accuracy,
                traced.epoch_log[i].val_accuracy);
      EXPECT_EQ(baseline.epoch_log[i].comm_seconds,
                traced.epoch_log[i].comm_seconds);
      EXPECT_EQ(baseline.epoch_log[i].used_allgather,
                traced.epoch_log[i].used_allgather);
    }

    const auto flat_a = baseline.model->entities().flat();
    const auto flat_b = traced.model->entities().flat();
    ASSERT_EQ(flat_a.size(), flat_b.size());
    EXPECT_EQ(std::memcmp(flat_a.data(), flat_b.data(),
                          flat_a.size_bytes()),
              0)
        << "telemetry changed the trained embeddings";
    const auto rel_a = baseline.model->relations().flat();
    const auto rel_b = traced.model->relations().flat();
    EXPECT_EQ(std::memcmp(rel_a.data(), rel_b.data(), rel_a.size_bytes()),
              0);
  }

  // The instrumented run's artifacts meet the whole telemetry contract.
  trace.write(trace_path);
  std::map<int, std::string> labels;
  const auto spans = load_trace_spans(trace_path, &labels);
  const auto loaded = load_events(path);
  check_tracks(spans, labels, loaded, trace_path);
  EXPECT_EQ(loaded.size(), 10u);

  // Its metrics snapshot, in both export formats.
  const std::string json_path = ::testing::TempDir() + "train_metrics.json";
  write_metrics(metrics, json_path);
  std::ifstream json_in(json_path);
  std::stringstream json_text;
  json_text << json_in.rdbuf();
  const JsonValue snapshot = parse_json(json_text.str());
  for (const char* section : {"counters", "gauges", "histograms"}) {
    EXPECT_TRUE(snapshot.has(section)) << "missing section " << section;
  }
  EXPECT_GT(snapshot.at("counters").at("train.steps").number, 0.0);
  EXPECT_GT(snapshot.at("counters").at("train.epochs").number, 0.0);

  const std::string prom_path = ::testing::TempDir() + "train_metrics.prom";
  write_metrics(metrics, prom_path);
  std::ifstream prom(prom_path);
  std::set<std::string> typed;
  std::size_t samples = 0;
  for (std::string line; std::getline(prom, line);) {
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string name;
      fields >> name;
      typed.insert(name);
    } else if (!line.empty() && line[0] != '#') {
      // Every sample is "<name>[{labels}] <value>" with a numeric value.
      const std::size_t space = line.rfind(' ');
      ASSERT_NE(space, std::string::npos) << line;
      std::size_t parsed = 0;
      EXPECT_NO_THROW(std::stod(line.substr(space + 1), &parsed)) << line;
      EXPECT_EQ(parsed, line.size() - space - 1) << line;
      ++samples;
    }
  }
  EXPECT_GT(samples, 0u);
  EXPECT_EQ(typed.count("dynkge_train_steps"), 1u);
  std::remove(path.c_str());
  std::remove(trace_path.c_str());
  std::remove(json_path.c_str());
  std::remove(prom_path.c_str());
}

// -- elastic and degraded runs meet the contract too ------------------------

struct TracedRun {
  core::TrainReport report;
  std::string raw_events;  ///< the stream as written
  std::vector<SpanRecord> spans;
  std::map<int, std::string> track_labels;
  std::vector<EpochEvent> events;  ///< the ones that stand
  AnalysisReport analysis;
};

/// Train with the trace and event sinks on, then load the artifacts
/// through the whole telemetry contract, as `dynkge analyze` does, and
/// analyse them.
TracedRun traced_run(core::TrainConfig config, const std::string& name) {
  const std::string trace_path = ::testing::TempDir() + name + ".json";
  const std::string events_path = ::testing::TempDir() + name + ".jsonl";
  TracedRun out;
  TraceWriter trace;
  {
    EventLog events(events_path);
    config.telemetry.trace = &trace;
    config.telemetry.events = &events;
    out.report = core::DistributedTrainer(tiny_dataset(), config).train();
  }
  trace.write(trace_path);
  std::ifstream in(events_path);
  std::stringstream raw;
  raw << in.rdbuf();
  out.raw_events = raw.str();
  out.spans = load_trace_spans(trace_path, &out.track_labels);
  out.events = load_events(events_path);
  check_tracks(out.spans, out.track_labels, out.events, trace_path);
  out.analysis = analyze(out.spans, out.events);
  std::remove(trace_path.c_str());
  std::remove(events_path.c_str());
  return out;
}

std::vector<int> analysed_epochs(const AnalysisReport& analysis) {
  std::vector<int> epochs;
  for (const EpochAnalysis& epoch : analysis.epochs) {
    epochs.push_back(epoch.epoch);
  }
  return epochs;
}

core::TrainConfig elastic_config(comm::FaultInjector& injector) {
  core::TrainConfig config = fast_config(2);
  config.max_epochs = 3;
  config.fault_injector = &injector;
  config.elastic.enabled = true;
  config.elastic.max_rank_failures = 1;
  return config;
}

TEST(EventStream, RankCrashRunAnalysesPerAttempt) {
  // Rank 1 dies at the start of epoch 1: the world shrinks to rank 0,
  // which replays epoch 1 from the epoch-0 snapshot.
  comm::FaultInjector injector(comm::FaultInjector::parse_spec("crash@1@e1"));
  const TracedRun run = traced_run(elastic_config(injector), "crash_e1");
  ASSERT_EQ(run.report.recoveries, 1);
  ASSERT_NE(run.raw_events.find("\"event\":\"recovery\""),
            std::string::npos);

  EXPECT_EQ(analysed_epochs(run.analysis), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(run.analysis.num_ranks, 2);
  EXPECT_EQ(run.analysis.epochs[1].ranks.size(), 1u);
  // The dead rank's track keeps its label; the host track stays on the
  // configured world.
  EXPECT_EQ(run.track_labels.at(1), "rank 1");
  EXPECT_EQ(run.track_labels.at(2), "host");

  // Rank 0 ran four epoch spans for three logged epochs: epoch 1 aborted,
  // then replayed after the rebuild. Epoch 1 is the replayed one.
  std::vector<const SpanRecord*> rank0;
  double rebuild_ts = -1.0;
  for (const SpanRecord& span : run.spans) {
    if (span.name == "epoch" && span.tid == 0) rank0.push_back(&span);
    if (span.name == "recovery.rebuild") rebuild_ts = span.ts_us;
  }
  ASSERT_EQ(rank0.size(), 4u);
  ASSERT_GE(rebuild_ts, 0.0);
  std::sort(rank0.begin(), rank0.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              return a->ts_us < b->ts_us;
            });
  ASSERT_GT(rank0[2]->ts_us, rebuild_ts);
  EXPECT_EQ(run.analysis.epochs[1].critical_rank, 0);
  EXPECT_DOUBLE_EQ(run.analysis.epochs[1].critical_seconds,
                   rank0[2]->dur_us / 1e6);
}

TEST(EventStream, EpochLoggedBeforeCrashIsSuperseded) {
  // Rank 1 dies in epoch 1's snapshot, after both ranks logged epoch 1:
  // the recovery resumes from epoch 1, so rank 0 logs it a second time and
  // only that second event stands.
  comm::FaultInjector injector(
      comm::FaultInjector::parse_spec(kCrashAfterEpoch1Logged));
  const TracedRun run = traced_run(elastic_config(injector), "crash_late");
  ASSERT_EQ(run.report.recoveries, 1);
  const auto count = [&](const std::string& text) {
    std::size_t n = 0;
    for (std::size_t at = 0;
         (at = run.raw_events.find(text, at)) != std::string::npos; ++at) {
      ++n;
    }
    return n;
  };
  ASSERT_EQ(count("\"epoch\":1,\"rank\":0,"), 2u) << run.raw_events;
  ASSERT_NE(run.raw_events.find("\"resume_epoch\":1,"), std::string::npos);

  EXPECT_EQ(analysed_epochs(run.analysis), (std::vector<int>{0, 1, 2}));
  ASSERT_EQ(run.events.size(), 4u);  // (0,0) (0,1) (1,0) (2,0)
  EXPECT_EQ(run.events[2].epoch, 1);
  EXPECT_EQ(run.events[2].attempt, 1);
}

TEST(EventStream, SkippedCheckpointRunAnalyses) {
  // A full disk at epoch 1 under --checkpoint-on-error skip: the run keeps
  // training and logs a checkpoint_error line into the epoch stream.
  core::TrainConfig config = fast_config(2);
  config.max_epochs = 3;
  config.checkpoint.dir = ::testing::TempDir() + "events_ckpt_skip";
  config.checkpoint.on_error = "skip";
  config.checkpoint.test_disk_fault_at_epoch = 1;
  const TracedRun run = traced_run(config, "ckpt_skip");
  ASSERT_NE(run.raw_events.find("\"event\":\"checkpoint_error\""),
            std::string::npos);
  EXPECT_EQ(analysed_epochs(run.analysis), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(run.analysis.num_ranks, 2);
}

}  // namespace
}  // namespace dynkge::obs
