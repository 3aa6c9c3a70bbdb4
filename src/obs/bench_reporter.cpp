#include "obs/bench_reporter.hpp"

#include <cstdio>
#include <fstream>

#include "util/json_writer.hpp"

namespace dynkge::obs {

/// Bump when the BENCH_*.json layout changes incompatibly; check_bench.py
/// rejects versions it does not know.
constexpr std::int64_t kBenchSchemaVersion = 1;

BenchReporter::BenchReporter(std::string bench, std::string path)
    : bench_(std::move(bench)), path_(std::move(path)) {}

void BenchReporter::context(const std::string& key, const std::string& value) {
  ContextValue v;
  v.text = value;
  context_.emplace_back(key, std::move(v));
}

void BenchReporter::context(const std::string& key, std::int64_t value) {
  ContextValue v;
  v.is_int = true;
  v.number = value;
  context_.emplace_back(key, std::move(v));
}

void BenchReporter::set(const std::string& name, double value) {
  registry_.gauge(name).set(value);
}

void BenchReporter::count(const std::string& name, std::uint64_t value) {
  registry_.counter(name).add(value);
}

void BenchReporter::flag(const std::string& name, bool value) {
  flags_[name] = value;
}

std::string BenchReporter::to_json() const {
  util::JsonWriter json;
  json.begin_object();
  json.kv("bench", bench_);
  json.kv("schema_version", kBenchSchemaVersion);
  json.key("context").begin_object();
  for (const auto& [key, value] : context_) {
    if (value.is_int) {
      json.kv(key, value.number);
    } else {
      json.kv(key, value.text);
    }
  }
  json.end_object();
  json.key("flags").begin_object();
  for (const auto& [name, value] : flags_) {
    json.kv(name, value);
  }
  json.end_object();
  json.key("metrics").raw(registry_.to_json());
  json.end_object();
  return json.str();
}

bool BenchReporter::write() const {
  if (path_.empty()) return true;
  std::ofstream out(path_);
  out << to_json() << "\n";
  if (!out) {
    std::fprintf(stderr, "[bench] failed to write %s\n", path_.c_str());
    return false;
  }
  std::fprintf(stderr, "[bench] wrote %s\n", path_.c_str());
  return true;
}

}  // namespace dynkge::obs
