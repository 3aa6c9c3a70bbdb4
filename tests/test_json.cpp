#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "core/report_json.hpp"
#include "kge/synthetic.hpp"
#include "util/json_writer.hpp"

namespace dynkge {
namespace {

using util::JsonWriter;

TEST(JsonWriter, EmptyObjectAndArray) {
  JsonWriter a;
  a.begin_object().end_object();
  EXPECT_EQ(a.str(), "{}");
  JsonWriter b;
  b.begin_array().end_array();
  EXPECT_EQ(b.str(), "[]");
}

TEST(JsonWriter, KeyValuePairs) {
  JsonWriter json;
  json.begin_object();
  json.kv("name", std::string("dynkge"));
  json.kv("nodes", 16);
  json.kv("mrr", 0.5);
  json.kv("converged", true);
  json.end_object();
  EXPECT_EQ(json.str(),
            "{\"name\":\"dynkge\",\"nodes\":16,\"mrr\":0.5,"
            "\"converged\":true}");
}

TEST(JsonWriter, NestedStructures) {
  JsonWriter json;
  json.begin_object();
  json.key("list").begin_array();
  json.value(1);
  json.value(2);
  json.begin_object().kv("x", 3).end_object();
  json.end_array();
  json.kv("after", false);
  json.end_object();
  EXPECT_EQ(json.str(), "{\"list\":[1,2,{\"x\":3}],\"after\":false}");
}

TEST(JsonWriter, StringEscaping) {
  JsonWriter json;
  json.begin_object();
  json.kv("text", std::string("a\"b\\c\nd\te"));
  json.end_object();
  EXPECT_EQ(json.str(), "{\"text\":\"a\\\"b\\\\c\\nd\\te\"}");
}

TEST(JsonWriter, ControlCharactersEscaped) {
  JsonWriter json;
  json.begin_object();
  json.kv("bell", std::string("\x07"));
  json.end_object();
  EXPECT_EQ(json.str(), "{\"bell\":\"\\u0007\"}");
}

TEST(JsonWriter, NumbersRoundTrip) {
  JsonWriter json;
  json.begin_array();
  json.value(0.1);
  json.value(std::int64_t{-42});
  json.value(1e-9);
  json.end_array();
  const std::string text = json.str();
  EXPECT_NE(text.find("0.1"), std::string::npos);
  EXPECT_NE(text.find("-42"), std::string::npos);
  EXPECT_NE(text.find("1e-09"), std::string::npos);
}

TEST(JsonWriter, RawSplicesPreSerializedJson) {
  JsonWriter json;
  json.begin_object();
  json.kv("before", 1);
  json.key("spliced").raw("{\"inner\":[1,2]}");
  json.kv("after", 2);
  json.end_object();
  EXPECT_EQ(json.str(),
            "{\"before\":1,\"spliced\":{\"inner\":[1,2]},\"after\":2}");

  JsonWriter array;
  array.begin_array();
  array.raw("true");
  array.raw("{}");
  array.end_array();
  EXPECT_EQ(array.str(), "[true,{}]");
}

TEST(ReportJson, EmbedsMetricsSnapshotWhenGiven) {
  core::TrainReport report;
  report.strategy_label = "allreduce";
  obs::MetricsRegistry metrics;
  metrics.counter("train.steps").add(9);

  const std::string with = core::report_to_json(report, &metrics);
  EXPECT_NE(with.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(with.find("\"train.steps\":9"), std::string::npos);
  EXPECT_EQ(std::count(with.begin(), with.end(), '{'),
            std::count(with.begin(), with.end(), '}'));

  // Absent without a registry (default argument).
  EXPECT_EQ(core::report_to_json(report).find("\"metrics\""),
            std::string::npos);
}

TEST(ReportJson, ContainsAllSections) {
  // A tiny real training run, exported.
  kge::SyntheticSpec spec;
  spec.num_entities = 120;
  spec.num_relations = 10;
  spec.num_triples = 1500;
  spec.num_latent_types = 4;
  spec.seed = 8;
  const kge::Dataset dataset = kge::generate_synthetic(spec);
  core::TrainConfig config;
  config.embedding_rank = 6;
  config.num_nodes = 2;
  config.batch_size = 100;
  config.max_epochs = 4;
  config.compute_final_metrics = false;
  const auto report = core::DistributedTrainer(dataset, config).train();

  const std::string json = core::report_to_json(report);
  for (const char* field :
       {"\"strategy\"", "\"num_nodes\":2", "\"epochs\":4", "\"ranking\"",
        "\"comm\"", "\"per_kind\"", "\"epoch_log\"", "\"mean_loss\"",
        "\"allreduce_fraction\"", "\"total_sim_seconds\"",
        "\"host_threads\"", "\"compute_cpu_seconds\"", "\"host_speedup\""}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
  // Structurally balanced.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  // Four epoch entries.
  std::size_t occurrences = 0, pos = 0;
  while ((pos = json.find("\"epoch\":", pos)) != std::string::npos) {
    ++occurrences;
    pos += 8;
  }
  EXPECT_EQ(occurrences, 4u);
}

TEST(ReportJson, WriteToFile) {
  core::TrainReport report;
  report.strategy_label = "allreduce";
  report.model_name = "complex";
  const std::string path = "/tmp/dynkge_report_test.json";
  core::write_report_json(report, path);
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("\"allreduce\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ReportJson, WriteFailureThrows) {
  core::TrainReport report;
  EXPECT_THROW(core::write_report_json(report, "/nonexistent-dir/x.json"),
               std::runtime_error);
}

}  // namespace
}  // namespace dynkge
