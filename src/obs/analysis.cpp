#include "obs/analysis.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/events.hpp"
#include "util/json.hpp"
#include "util/json_writer.hpp"

namespace dynkge::obs {
namespace {

constexpr double kUsPerSecond = 1e6;

/// Collectives are the spans the gradient exchange wraps around the
/// modeled transport (grad_exchange.cpp); everything else inside an epoch
/// span is compute or encode/decode work local to the rank.
bool is_collective(const std::string& name) {
  return name.rfind("exchange.", 0) == 0;
}

[[noreturn]] void malformed(const std::string& path, const std::string& why) {
  throw std::runtime_error("analyze: " + path + ": " + why);
}

void check_schema_version(const util::JsonValue& object,
                          const std::string& path) {
  if (!object.has("schema_version")) return;  // pre-versioning artifact
  const double version = object.at("schema_version").number;
  if (static_cast<int>(version) != kTelemetrySchemaVersion) {
    malformed(path, "unsupported schema_version " +
                        std::to_string(static_cast<int>(version)) +
                        " (this build understands " +
                        std::to_string(kTelemetrySchemaVersion) + ")");
  }
}

}  // namespace

double interval_union(std::vector<std::pair<double, double>> intervals,
                      double lo, double hi) {
  for (auto& [begin, end] : intervals) {
    begin = std::max(begin, lo);
    end = std::min(end, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double open_end = lo;  // everything before `lo` is already accounted
  for (const auto& [begin, end] : intervals) {
    if (end <= begin) continue;  // clipped away or empty
    if (begin > open_end) {
      total += end - begin;
      open_end = end;
    } else if (end > open_end) {
      total += end - open_end;
      open_end = end;
    }
  }
  return total;
}

std::vector<SpanRecord> load_trace_spans(const std::string& path) {
  std::ifstream in(path);
  if (!in) malformed(path, "cannot open");
  std::stringstream buffer;
  buffer << in.rdbuf();
  util::JsonValue trace;
  try {
    trace = util::parse_json(buffer.str());
  } catch (const std::exception& error) {
    malformed(path, error.what());
  }
  if (!trace.is_object() || !trace.has("traceEvents") ||
      !trace.at("traceEvents").is_array()) {
    malformed(path, "not a Chrome trace (no traceEvents array)");
  }
  check_schema_version(trace, path);

  std::vector<SpanRecord> spans;
  for (const util::JsonValue& event : trace.at("traceEvents").array) {
    if (!event.is_object() || !event.has("ph")) {
      malformed(path, "trace event without ph");
    }
    const std::string& phase = event.at("ph").string;
    if (phase == "M") continue;  // thread_name metadata
    if (phase != "X") malformed(path, "unexpected event phase " + phase);
    SpanRecord span;
    span.name = event.at("name").string;
    span.tid = static_cast<int>(event.at("tid").number);
    span.ts_us = event.at("ts").number;
    span.dur_us = event.at("dur").number;
    spans.push_back(std::move(span));
  }
  return spans;
}

std::vector<EpochEvent> load_events(const std::string& path) {
  std::ifstream in(path);
  if (!in) malformed(path, "cannot open");
  std::vector<EpochEvent> events;
  std::string line;
  std::size_t number = 0;
  while (std::getline(in, line)) {
    ++number;
    if (line.empty()) continue;
    util::JsonValue record;
    try {
      record = util::parse_json(line);
    } catch (const std::exception& error) {
      malformed(path, "line " + std::to_string(number) + ": " +
                          error.what());
    }
    check_schema_version(record, path);
    for (const char* key :
         {"epoch", "rank", "comm_mode", "transport", "probe",
          "probe_baseline_seconds", "switched_to_allgather", "comm_seconds",
          "sim_seconds"}) {
      if (!record.has(key)) {
        malformed(path, "line " + std::to_string(number) +
                            ": missing key " + key);
      }
    }
    EpochEvent event;
    event.epoch = static_cast<int>(record.at("epoch").number);
    event.rank = static_cast<int>(record.at("rank").number);
    event.comm_mode = record.at("comm_mode").string;
    event.transport = record.at("transport").string;
    event.probe = record.at("probe").boolean;
    event.switched_to_allgather =
        record.at("switched_to_allgather").boolean;
    event.comm_seconds = record.at("comm_seconds").number;
    event.sim_seconds = record.at("sim_seconds").number;
    event.probe_baseline_seconds =
        record.at("probe_baseline_seconds").number;
    events.push_back(std::move(event));
  }
  if (events.empty()) malformed(path, "no events");
  return events;
}

AnalysisReport analyze(const std::vector<SpanRecord>& spans,
                       const std::vector<EpochEvent>& events) {
  AnalysisReport report;

  // Events are authoritative for epoch numbering and rank count.
  std::map<int, std::map<int, const EpochEvent*>> by_epoch;  // epoch->rank
  int max_rank = -1;
  for (const EpochEvent& event : events) {
    by_epoch[event.epoch][event.rank] = &event;
    max_rank = std::max(max_rank, event.rank);
  }
  report.num_ranks = max_rank + 1;
  report.num_epochs = static_cast<int>(by_epoch.size());
  report.comm_mode = events.front().comm_mode;

  // Pair each rank's i-th "epoch" span (by start time) with the rank's
  // i-th event (by epoch number); collectives attribute to the enclosing
  // epoch span by interval overlap.
  std::map<int, std::vector<const SpanRecord*>> epoch_spans;   // by tid
  std::map<int, std::vector<const SpanRecord*>> comm_spans;    // by tid
  for (const SpanRecord& span : spans) {
    if (span.name == "epoch") epoch_spans[span.tid].push_back(&span);
    if (is_collective(span.name)) comm_spans[span.tid].push_back(&span);
  }
  for (auto& [tid, list] : epoch_spans) {
    std::stable_sort(list.begin(), list.end(),
                     [](const SpanRecord* a, const SpanRecord* b) {
                       return a->ts_us < b->ts_us;
                     });
  }

  std::map<int, std::vector<int>> epochs_of_rank;  // sorted epoch numbers
  for (const auto& [epoch, ranks] : by_epoch) {
    for (const auto& [rank, event] : ranks) {
      epochs_of_rank[rank].push_back(epoch);
    }
  }

  for (const auto& [epoch, ranks] : by_epoch) {
    EpochAnalysis analysis;
    analysis.epoch = epoch;
    bool complete = static_cast<int>(ranks.size()) == report.num_ranks;
    double dur_sum = 0.0, dur_max = -1.0, comm_fraction_sum = 0.0;
    for (const auto& [rank, event] : ranks) {
      const auto& order = epochs_of_rank[rank];
      const auto position =
          std::lower_bound(order.begin(), order.end(), epoch) -
          order.begin();
      const auto track = epoch_spans.find(rank);
      if (track == epoch_spans.end() ||
          position >= static_cast<std::ptrdiff_t>(track->second.size())) {
        complete = false;
        break;
      }
      const SpanRecord& span = *track->second[position];
      RankEpochProfile profile;
      profile.rank = rank;
      profile.epoch_seconds = span.dur_us / kUsPerSecond;
      const double begin = span.ts_us;
      const double end = span.ts_us + span.dur_us;

      // Union per collective name, then overall: nested/overlapping
      // spans must count once.
      std::map<std::string, std::vector<std::pair<double, double>>>
          by_name;
      std::vector<std::pair<double, double>> all;
      const auto comm_track = comm_spans.find(rank);
      if (comm_track != comm_spans.end()) {
        for (const SpanRecord* comm : comm_track->second) {
          const double c_end = comm->ts_us + comm->dur_us;
          if (c_end <= begin || comm->ts_us >= end) continue;
          by_name[comm->name].emplace_back(comm->ts_us, c_end);
          all.emplace_back(comm->ts_us, c_end);
        }
      }
      profile.comm_seconds =
          interval_union(std::move(all), begin, end) / kUsPerSecond;
      profile.comm_fraction =
          span.dur_us > 0.0 ? profile.comm_seconds / profile.epoch_seconds
                            : 0.0;
      for (auto& [name, intervals] : by_name) {
        const double seconds =
            interval_union(std::move(intervals), begin, end) / kUsPerSecond;
        profile.collective_seconds[name] = seconds;
        if (seconds > profile.top_collective_seconds) {
          profile.top_collective_seconds = seconds;
          profile.top_collective = name;
        }
      }
      dur_sum += profile.epoch_seconds;
      comm_fraction_sum += profile.comm_fraction;
      if (profile.epoch_seconds > dur_max) {
        dur_max = profile.epoch_seconds;
        analysis.critical_rank = rank;
        analysis.critical_seconds = profile.epoch_seconds;
        analysis.blocking_collective = profile.top_collective;
        analysis.blocking_seconds = profile.top_collective_seconds;
      }
      analysis.ranks.push_back(std::move(profile));
    }
    if (!complete) continue;  // truncated trace: skip, audit still covers
    const double n = static_cast<double>(analysis.ranks.size());
    const double mean = dur_sum / n;
    analysis.straggler_skew = mean > 0.0 ? dur_max / mean : 1.0;
    analysis.comm_fraction_mean = comm_fraction_sum / n;
    report.epochs.push_back(std::move(analysis));
  }

  // Strategy audit over rank 0's records (the costs are allreduced, so
  // every rank logged identical numbers).
  std::vector<const EpochEvent*> rank0;
  for (const auto& [epoch, ranks] : by_epoch) {
    const auto it = ranks.find(0);
    if (it != ranks.end()) rank0.push_back(it->second);
  }
  const auto trace_collective_max =
      [&](int epoch, const std::string& name) {
        // Cluster cost of `name` during `epoch`: the slowest rank's union
        // (the blocking view, matching the allreduced modeled max).
        double worst = -1.0;
        for (const EpochAnalysis& analysis : report.epochs) {
          if (analysis.epoch != epoch) continue;
          for (const RankEpochProfile& profile : analysis.ranks) {
            const auto it = profile.collective_seconds.find(name);
            if (it != profile.collective_seconds.end()) {
              worst = std::max(worst, it->second);
            }
          }
        }
        return worst;
      };
  for (std::size_t i = 0; i < rank0.size(); ++i) {
    const EpochEvent& event = *rank0[i];
    if (!event.probe) continue;
    ProbeAudit audit;
    audit.epoch = event.epoch;
    audit.probe_comm_seconds = event.comm_seconds;
    audit.baseline_comm_seconds = event.probe_baseline_seconds;
    audit.switched = event.switched_to_allgather;
    audit.expected_switch =
        audit.baseline_comm_seconds >= 0.0 &&
        audit.probe_comm_seconds < audit.baseline_comm_seconds;
    audit.contradicted = audit.switched != audit.expected_switch;
    if (audit.contradicted) ++report.contradicted_decisions;

    audit.trace_allgather_seconds =
        trace_collective_max(event.epoch, "exchange.allgather");
    for (std::size_t back = i; back-- > 0;) {
      if (rank0[back]->transport == "allreduce") {
        audit.trace_allreduce_seconds =
            trace_collective_max(rank0[back]->epoch, "exchange.allreduce");
        break;
      }
    }
    if (audit.trace_allgather_seconds >= 0.0 &&
        audit.trace_allreduce_seconds >= 0.0) {
      const bool wall_prefers_allgather = audit.trace_allgather_seconds <
                                          audit.trace_allreduce_seconds;
      audit.wall_clock_agrees =
          wall_prefers_allgather == audit.expected_switch;
    }
    report.audit.push_back(std::move(audit));
  }

  return report;
}

std::string AnalysisReport::to_json() const {
  util::JsonWriter json;
  json.begin_object();
  json.kv("schema_version", kTelemetrySchemaVersion);
  json.kv("num_ranks", num_ranks);
  json.kv("num_epochs", num_epochs);
  json.kv("comm_mode", comm_mode);
  json.key("epochs").begin_array();
  for (const EpochAnalysis& epoch : epochs) {
    json.begin_object();
    json.kv("epoch", epoch.epoch);
    json.kv("critical_rank", epoch.critical_rank);
    json.kv("critical_seconds", epoch.critical_seconds);
    json.kv("blocking_collective", epoch.blocking_collective);
    json.kv("blocking_seconds", epoch.blocking_seconds);
    json.kv("straggler_skew", epoch.straggler_skew);
    json.kv("comm_fraction_mean", epoch.comm_fraction_mean);
    json.key("ranks").begin_array();
    for (const RankEpochProfile& rank : epoch.ranks) {
      json.begin_object();
      json.kv("rank", rank.rank);
      json.kv("epoch_seconds", rank.epoch_seconds);
      json.kv("comm_seconds", rank.comm_seconds);
      json.kv("comm_fraction", rank.comm_fraction);
      json.kv("top_collective", rank.top_collective);
      json.kv("top_collective_seconds", rank.top_collective_seconds);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.key("strategy_audit").begin_object();
  json.key("probes").begin_array();
  for (const ProbeAudit& probe : audit) {
    json.begin_object();
    json.kv("epoch", probe.epoch);
    json.kv("probe_comm_seconds", probe.probe_comm_seconds);
    json.kv("baseline_comm_seconds", probe.baseline_comm_seconds);
    json.kv("switched", probe.switched);
    json.kv("expected_switch", probe.expected_switch);
    json.kv("contradicted", probe.contradicted);
    json.kv("trace_allgather_seconds", probe.trace_allgather_seconds);
    json.kv("trace_allreduce_seconds", probe.trace_allreduce_seconds);
    json.kv("wall_clock_agrees", probe.wall_clock_agrees);
    json.end_object();
  }
  json.end_array();
  json.kv("contradicted_decisions", contradicted_decisions);
  json.end_object();
  json.end_object();
  return json.str();
}

std::string AnalysisReport::to_table() const {
  std::ostringstream out;
  char line[256];
  out << "critical path (" << num_ranks << " ranks, " << num_epochs
      << " epochs, comm mode " << comm_mode << ")\n";
  out << "epoch  crit-rank  crit-ms   blocking collective     comm%  "
         "skew\n";
  for (const EpochAnalysis& epoch : epochs) {
    std::snprintf(
        line, sizeof(line), "%5d  %9d  %7.3f   %-20s  %5.1f  %.3f\n",
        epoch.epoch, epoch.critical_rank, epoch.critical_seconds * 1e3,
        epoch.blocking_collective.empty() ? "-"
                                          : epoch.blocking_collective.c_str(),
        epoch.comm_fraction_mean * 100.0, epoch.straggler_skew);
    out << line;
  }
  out << "\nstrategy audit (" << audit.size() << " probes, "
      << contradicted_decisions << " contradicted)\n";
  if (!audit.empty()) {
    out << "epoch  probe-comm-s  baseline-s  decision  expected  verdict  "
           "wall-clock\n";
    for (const ProbeAudit& probe : audit) {
      std::snprintf(line, sizeof(line),
                    "%5d  %12.6f  %10.6f  %-8s  %-8s  %-7s  %s\n",
                    probe.epoch, probe.probe_comm_seconds,
                    probe.baseline_comm_seconds,
                    probe.switched ? "switch" : "stay",
                    probe.expected_switch ? "switch" : "stay",
                    probe.contradicted ? "FLAG" : "ok",
                    probe.wall_clock_agrees ? "agrees" : "disagrees");
      out << line;
    }
  }
  return out.str();
}

}  // namespace dynkge::obs
