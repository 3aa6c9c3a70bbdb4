// TraceWriter/TraceSpan: event recording, disabled no-op, JSON
// well-formedness, and proper nesting of the spans a real training run
// emits on every rank's track.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "kge/synthetic.hpp"
#include "util/json.hpp"

namespace dynkge::obs {
namespace {

using dynkge::util::JsonValue;
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

/// Check that the complete events on each track are properly nested: a
/// span either finishes before the next one starts or fully contains it.
/// Each tid is one sequential rank program reading one monotonic clock,
/// so RAII scoping guarantees this — a violation means broken span
/// plumbing (e.g. two ranks writing the same tid).
void expect_properly_nested(const std::vector<JsonValue>& events) {
  std::map<double, std::vector<const JsonValue*>> per_tid;
  for (const auto& event : events) {
    if (event.at("ph").string == "X") {
      per_tid[event.at("tid").number].push_back(&event);
    }
  }
  EXPECT_FALSE(per_tid.empty());
  for (auto& [tid, spans] : per_tid) {
    std::sort(spans.begin(), spans.end(),
              [](const JsonValue* a, const JsonValue* b) {
                if (a->at("ts").number != b->at("ts").number) {
                  return a->at("ts").number < b->at("ts").number;
                }
                return a->at("dur").number > b->at("dur").number;
              });
    std::vector<double> open_ends;  // stack of enclosing span end times
    for (const JsonValue* span : spans) {
      const double ts = span->at("ts").number;
      const double end = ts + span->at("dur").number;
      while (!open_ends.empty() && open_ends.back() <= ts) {
        open_ends.pop_back();
      }
      if (!open_ends.empty()) {
        EXPECT_LE(end, open_ends.back())
            << "span " << span->at("name").string << " on tid " << tid
            << " partially overlaps its predecessor";
      }
      open_ends.push_back(end);
    }
  }
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
  const auto report = core::DistributedTrainer(dataset, config).train();
  ASSERT_EQ(report.epochs, 3);
  ASSERT_GT(trace.size(), 0u);

  const auto root = parse_json(trace.to_json());
  const auto& events = root.at("traceEvents").array;

  std::set<std::string> names;
  for (const auto& event : events) {
    if (event.at("ph").string == "X") {
      names.insert(event.at("name").string);
      // Only rank tracks (0, 1) and the host track (2) exist.
      EXPECT_GE(event.at("tid").number, 0.0);
      EXPECT_LE(event.at("tid").number, 2.0);
    }
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

  expect_properly_nested(events);
}

}  // namespace
}  // namespace dynkge::obs
