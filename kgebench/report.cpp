#include "report.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "calibration.hpp"
#include "util/json.hpp"
#include "util/json_writer.hpp"
#include "util/stopwatch.hpp"

namespace kgebench {

std::vector<MetricSpec> load_metric_spec(const std::string& path,
                                         bool trace) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  const dynkge::util::JsonValue doc = dynkge::util::parse_json(text.str());
  std::vector<MetricSpec> spec;
  for (const auto& entry :
       doc.at(trace ? "per_layer" : "end_to_end").array) {
    spec.push_back({entry.at("name").string, entry.at("unit").string});
  }
  return spec;
}

namespace {

const MetricSpec& find_spec(const std::vector<MetricSpec>& spec,
                            const std::string& name) {
  for (const MetricSpec& entry : spec) {
    if (name == entry.name) return entry;
  }
  throw std::logic_error("metric " + name + " is not in the spec");
}

std::string format_value(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

void print_metric(const Metric& m) {
  std::cout << "  " << m.name << " = " << format_value(m.value) << " "
            << m.unit << "  (n=" << m.samples << ")";
  if (!m.note.empty()) std::cout << "  " << m.note;
  std::cout << "\n";
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    std::size_t samples, std::string note) {
  const MetricSpec& spec = find_spec(spec_, name);
  for (const Metric& m : metrics_) {
    if (m.name == name) throw std::logic_error("metric " + name + " twice");
  }
  metrics_.push_back({name, value, spec.unit, samples, std::move(note)});
}

void Report::percentile_metric(const std::string& name, const Percentile& p,
                               const std::string& note) {
  metric(name, p.value, p.samples,
         p.reported ? note
                    : note + "; only " + std::to_string(p.beyond) +
                          " samples beyond: not reportable");
}

void Report::detail(const std::string& name, double value,
                    const std::string& unit, std::size_t samples,
                    std::string note) {
  details_.push_back({name, value, unit, samples, std::move(note)});
}

void Report::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) ++failed_checks_;
  check_lines_.push_back(std::string(ok ? "ok    " : "FAIL  ") + what);
}

void Report::count_ops(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ops_ += attempted;
  failed_ops_ += failed;
}

void Report::print() {
  std::vector<std::string> missing;
  for (const MetricSpec& entry : spec_) {
    const bool present =
        std::any_of(metrics_.begin(), metrics_.end(),
                    [&](const Metric& m) { return m.name == entry.name; });
    if (present) continue;
    // A layer the workload never enters reads 0; a missing end-to-end
    // metric is a benchmark bug, not a result.
    if (trace_) {
      metric(entry.name, 0.0, 0, "not exercised");
    } else {
      missing.push_back(entry.name);
    }
  }
  if (!missing.empty()) {
    std::ostringstream names;
    for (const std::string& name : missing) names << " " << name;
    throw std::logic_error("metrics not reported:" + names.str());
  }

  const std::uint64_t attempted = attempted_ops_ + checks_;
  const std::uint64_t failed = failed_ops_ + failed_checks_;
  std::cout << "workload " << workload_ << " ("
            << (trace_ ? "traced: per-layer" : "untraced: end-to-end")
            << ")\nworkload metrics:\n";
  for (const Metric& m : details_) print_metric(m);
  print_metric({"failed_share",
                static_cast<double>(failed) / static_cast<double>(attempted),
                "1", attempted, "failed / attempted operations and checks"});
  std::cout << (trace_ ? "per-layer metrics:\n" : "end-to-end metrics:\n");
  for (const Metric& m : metrics_) print_metric(m);
  std::cout << "checks:\n";
  for (const std::string& line : check_lines_) {
    std::cout << "  " << line << "\n";
  }

  dynkge::util::JsonWriter json;
  json.begin_object();
  json.kv("correct", correct());
  json.kv("attempted", static_cast<std::int64_t>(attempted));
  json.kv("failed", static_cast<std::int64_t>(failed));
  json.key("metrics").begin_object();
  for (const MetricSpec& entry : spec_) {
    for (const Metric& m : metrics_) {
      if (m.name != entry.name) continue;
      json.key(m.name).begin_object();
      json.kv("value", m.value);
      json.kv("unit", m.unit);
      json.end_object();
    }
  }
  json.end_object();
  json.end_object();
  std::cout << json.str() << std::endl;
}

double process_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::vector<double> time_setups(bool once, int kernel_threads,
                                const std::function<void()>& setup) {
  std::vector<double> seconds;
  const dynkge::util::Stopwatch total;
  double slowness_before = host_slowness(kernel_threads);
  do {
    const double before = process_cpu_seconds();
    setup();
    const double cpu = process_cpu_seconds() - before;
    const double slowness_after = host_slowness(kernel_threads);
    seconds.push_back(cpu / (0.5 * (slowness_before + slowness_after)));
    slowness_before = slowness_after;
  } while (!once && seconds.size() < 100 &&
           (seconds.size() < 5 || total.seconds() < 3.0));
  return seconds;
}

std::uint64_t model_digest(const dynkge::kge::KgeModel& model) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const auto* matrix : {&model.entities(), &model.relations()}) {
    const auto flat = matrix->flat();
    const auto* bytes = reinterpret_cast<const unsigned char*>(flat.data());
    for (std::size_t i = 0; i < flat.size_bytes(); ++i) {
      hash ^= bytes[i];
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
  return buffer;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

}  // namespace kgebench
