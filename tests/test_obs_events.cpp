// EventLog + the trainer's per-epoch event stream: JSONL schema, one event
// per (epoch, rank), probe tagging that replays the DRS decision, and the
// zero-cost guarantee — telemetry must not change training results by a
// single bit.
#include "obs/events.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/trainer.hpp"
#include "kge/synthetic.hpp"
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

  const auto events = read_jsonl(path);
  ASSERT_EQ(events.size(), 10u);  // 5 epochs x 2 ranks

  const char* const required_keys[] = {
      "epoch",      "rank",         "comm_mode",
      "transport",  "probe",        "switched_to_allgather",
      "selection",  "keep_rate",    "quant",
      "bytes_on_wire", "ss_candidates_scored", "ss_candidates_kept",
      "loss",       "lr",           "val_accuracy",
      "sim_seconds", "comm_seconds"};

  std::set<std::pair<int, int>> seen;
  for (const auto& event : events) {
    for (const char* key : required_keys) {
      EXPECT_TRUE(event.has(key)) << "missing key: " << key;
    }
    const int epoch = static_cast<int>(event.at("epoch").number);
    const int rank = static_cast<int>(event.at("rank").number);
    EXPECT_TRUE(seen.emplace(epoch, rank).second)
        << "duplicate event for epoch " << epoch << " rank " << rank;

    EXPECT_EQ(event.at("comm_mode").string, "dynamic");
    EXPECT_EQ(event.at("quant").string, "1-bit");
    EXPECT_EQ(event.at("selection").string, "random-selection");
    EXPECT_GE(event.at("keep_rate").number, 0.0);
    EXPECT_LE(event.at("keep_rate").number, 1.0);
    EXPECT_GT(event.at("bytes_on_wire").number, 0.0);
    EXPECT_GE(event.at("sim_seconds").number,
              event.at("comm_seconds").number);

    // A probe epoch is precisely a dynamic-mode all-gather epoch before
    // the permanent switch; after the switch all-gather keeps running
    // with probe=false. All-reduce epochs are never probes.
    const bool probe = event.at("probe").boolean;
    const bool allgather = event.at("transport").string == "allgather";
    if (probe) EXPECT_TRUE(allgather);
    if (!allgather) EXPECT_FALSE(probe);
  }
  for (int epoch = 0; epoch < 5; ++epoch) {
    for (int rank = 0; rank < 2; ++rank) {
      EXPECT_TRUE(seen.count({epoch, rank}))
          << "no event for epoch " << epoch << " rank " << rank;
    }
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
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dynkge::obs
