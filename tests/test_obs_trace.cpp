// TraceWriter/TraceSpan: event recording, disabled no-op, JSON
// well-formedness, and a real training run's trace meeting the telemetry
// contract (obs/analysis): spans nest on every labelled rank track.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "core/trainer.hpp"
#include "kge/synthetic.hpp"
#include "obs/analysis.hpp"
#include "obs/events.hpp"
#include "util/json.hpp"

namespace dynkge::obs {
namespace {

using dynkge::util::parse_json;

TEST(TraceSpan, NullWriterIsANoOp) {
  // The disabled path must be safe to leave on every hot path.
  for (int i = 0; i < 1000; ++i) {
    const TraceSpan span(nullptr, "noop", 0);
  }
  SUCCEED();
}

TEST(TraceSpan, RecordsOneCompleteEventPerScope) {
  TraceWriter writer;
  {
    const TraceSpan outer(&writer, "outer", 3);
    const TraceSpan inner(&writer, "inner", 3);
  }
  EXPECT_EQ(writer.size(), 2u);

  const auto root = parse_json(writer.to_json());
  const auto& events = root.at("traceEvents").array;
  ASSERT_EQ(events.size(), 2u);
  // Spans close in reverse scope order: inner lands first.
  EXPECT_EQ(events[0].at("name").string, "inner");
  EXPECT_EQ(events[1].at("name").string, "outer");
  for (const auto& event : events) {
    EXPECT_EQ(event.at("ph").string, "X");
    EXPECT_EQ(event.at("pid").number, 0.0);
    EXPECT_EQ(event.at("tid").number, 3.0);
    EXPECT_GE(event.at("ts").number, 0.0);
    EXPECT_GE(event.at("dur").number, 0.0);
  }
  // inner nests inside outer.
  const auto& inner = events[0];
  const auto& outer = events[1];
  EXPECT_GE(inner.at("ts").number, outer.at("ts").number);
  EXPECT_LE(inner.at("ts").number + inner.at("dur").number,
            outer.at("ts").number + outer.at("dur").number);
}

TEST(TraceWriter, ThreadNamesBecomeMetadataEvents) {
  TraceWriter writer;
  writer.set_thread_name(0, "rank 0");
  writer.set_thread_name(7, "host");
  { const TraceSpan span(&writer, "work", 0); }

  const auto root = parse_json(writer.to_json());
  std::map<double, std::string> names;
  for (const auto& event : root.at("traceEvents").array) {
    if (event.at("ph").string == "M") {
      EXPECT_EQ(event.at("name").string, "thread_name");
      names[event.at("tid").number] = event.at("args").at("name").string;
    }
  }
  EXPECT_EQ(names[0], "rank 0");
  EXPECT_EQ(names[7], "host");
}

TEST(TraceWriter, TrainingRunEmitsWellFormedNestedSpans) {
  const kge::Dataset dataset = kge::generate_synthetic([] {
    kge::SyntheticSpec spec;
    spec.num_entities = 200;
    spec.num_relations = 16;
    spec.num_triples = 2000;
    spec.num_latent_types = 4;
    spec.seed = 7;
    return spec;
  }());

  TraceWriter trace;
  const std::string trace_path = ::testing::TempDir() + "nested_trace.json";
  const std::string events_path = ::testing::TempDir() + "nested_events.jsonl";
  EventLog events(events_path);
  core::TrainConfig config;
  config.embedding_rank = 8;
  config.num_nodes = 2;
  config.batch_size = 200;
  config.max_epochs = 3;
  config.compute_final_metrics = false;
  config.seed = 4242;
  // The full stack exercises every instrumented site: hard negatives,
  // selection, quantize encode/decode, both transports via the dynamic
  // probe, relation-partition setup, validation.
  config.strategy = core::StrategyConfig::drs_1bit_rp_ss(4, 1);
  config.strategy.dynamic_probe_interval = 2;
  config.telemetry.trace = &trace;
  config.telemetry.events = &events;
  const auto report = core::DistributedTrainer(dataset, config).train();
  ASSERT_EQ(report.epochs, 3);
  ASSERT_GT(trace.size(), 0u);
  events.flush();
  trace.write(trace_path);

  // The telemetry contract: typed complete spans that nest on every track
  // (each tid is one sequential rank program, so RAII scoping guarantees
  // it), and a labelled "rank N" track carrying spans for every rank.
  std::map<int, std::string> labels;
  const auto spans = load_trace_spans(trace_path, &labels);
  check_tracks(spans, labels, load_events(events_path), trace_path);
  std::set<std::string> names;
  for (const SpanRecord& span : spans) {
    names.insert(span.name);
    // Only rank tracks (0, 1) and the host track (2) exist.
    EXPECT_GE(span.tid, 0);
    EXPECT_LE(span.tid, 2);
  }
  for (const char* expected :
       {"epoch", "hard_negatives", "forward_backward", "grad_select",
        "adam_update", "validation", "quantize.encode", "quantize.decode",
        "relation_partition.setup"}) {
    EXPECT_TRUE(names.count(expected) == 1) << "missing span: " << expected;
  }
  // Epoch 2 is the all-gather probe, epochs 0-1 run all-reduce.
  EXPECT_EQ(names.count("exchange.allreduce"), 1u);
  EXPECT_EQ(names.count("exchange.allgather"), 1u);
  std::remove(trace_path.c_str());
  std::remove(events_path.c_str());
}

}  // namespace
}  // namespace dynkge::obs
