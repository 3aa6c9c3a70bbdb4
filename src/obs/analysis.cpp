#include "obs/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
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

using Type = util::JsonValue::Type;

/// The epoch-event schema, its one statement: every key the trainer writes
/// per (epoch, rank) in RankProgram::close_epoch, with its JSON type.
constexpr std::pair<const char*, Type> kEpochEventKeys[] = {
    {"schema_version", Type::kNumber}, {"epoch", Type::kNumber},
    {"rank", Type::kNumber},           {"comm_mode", Type::kString},
    {"transport", Type::kString},      {"probe", Type::kBool},
    {"probe_baseline_seconds", Type::kNumber},
    {"switched_to_allgather", Type::kBool},
    {"selection", Type::kString},      {"keep_rate", Type::kNumber},
    {"quant", Type::kString},          {"bytes_on_wire", Type::kNumber},
    {"ss_candidates_scored", Type::kNumber},
    {"ss_candidates_kept", Type::kNumber},
    {"loss", Type::kNumber},           {"lr", Type::kNumber},
    {"val_accuracy", Type::kNumber},   {"sim_seconds", Type::kNumber},
    {"comm_seconds", Type::kNumber}};

[[noreturn]] void malformed(const std::string& where, const std::string& why) {
  throw std::runtime_error("analyze: " + where + ": " + why);
}

/// One JSON object read through typed accessors: each rejects a missing
/// key or a value of the wrong type, naming `where` (file, line) and key.
class Fields {
 public:
  Fields(const util::JsonValue& object, std::string where)
      : object_(object), where_(std::move(where)) {
    if (!object_.is_object()) fail("not a JSON object");
  }
  [[noreturn]] void fail(const std::string& why) const {
    malformed(where_, why);
  }

  const util::JsonValue& get(const char* key, Type type) const {
    if (!object_.has(key)) fail(std::string("missing key ") + key);
    const util::JsonValue& value = object_.at(key);
    if (value.type != type) fail(std::string("key ") + key + ": wrong type");
    return value;
  }
  double number(const char* key) const {
    const double value = get(key, Type::kNumber).number;
    if (!std::isfinite(value)) fail(std::string("key ") + key + ": not finite");
    return value;
  }
  /// A non-negative integer below INT_MAX: epochs, ranks, tids, worlds.
  int id(const char* key) const {
    const double value = number(key);
    if (!(value >= 0.0 && value < std::numeric_limits<int>::max()) ||
        value != std::floor(value)) {
      fail(std::string("key ") + key + ": not an id");
    }
    return static_cast<int>(value);
  }
  const std::string& string(const char* key) const {
    return get(key, Type::kString).string;
  }
  bool boolean(const char* key) const { return get(key, Type::kBool).boolean; }

 private:
  const util::JsonValue& object_;
  std::string where_;
};

/// Parse `text` as one stamped JSON object, naming `where` on failure.
util::JsonValue parse_stamped(const std::string& text,
                              const std::string& where) {
  util::JsonValue value;
  try {
    value = util::parse_json(text);
  } catch (const std::exception& error) {
    malformed(where, error.what());
  }
  if (Fields(value, where).id("schema_version") != kTelemetrySchemaVersion) {
    malformed(where, "unsupported schema_version (this build understands " +
                         std::to_string(kTelemetrySchemaVersion) + ")");
  }
  return value;
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

std::vector<SpanRecord> load_trace_spans(
    const std::string& path, std::map<int, std::string>* track_labels) {
  std::ifstream in(path);
  if (!in) malformed(path, "cannot open");
  std::stringstream buffer;
  buffer << in.rdbuf();
  const util::JsonValue trace = parse_stamped(buffer.str(), path);

  std::vector<SpanRecord> spans;
  std::size_t index = 0;
  for (const util::JsonValue& event :
       Fields(trace, path).get("traceEvents", Type::kArray).array) {
    const std::string where = path + ": trace event " + std::to_string(index++);
    const Fields fields(event, where);
    fields.id("pid");
    const int tid = fields.id("tid");
    const std::string& phase = fields.string("ph");
    if (phase == "M") {
      if (fields.string("name") != "thread_name") {
        fields.fail("metadata other than thread_name");
      }
      const std::string& label =
          Fields(fields.get("args", Type::kObject), where).string("name");
      if (track_labels != nullptr) (*track_labels)[tid] = label;
      continue;
    }
    if (phase != "X") fields.fail("unexpected event phase " + phase);
    SpanRecord span{fields.string("name"), tid, fields.number("ts"),
                    fields.number("dur")};
    if (span.dur_us < 0.0) fields.fail("negative dur");
    spans.push_back(std::move(span));
  }
  return spans;
}

std::vector<EpochEvent> load_events(const std::string& path) {
  std::ifstream in(path);
  if (!in) malformed(path, "cannot open");
  const auto at = [&](std::size_t line) {
    return path + ":" + std::to_string(line);
  };
  // Epoch events no recovery has dropped, by (epoch, rank), with lines.
  std::map<std::pair<int, int>, std::pair<EpochEvent, std::size_t>> standing;
  std::vector<int> worlds = {-1};  // per attempt; -1 until known
  std::string text;
  for (std::size_t number = 1; std::getline(in, text); ++number) {
    if (text.empty()) continue;
    const util::JsonValue record = parse_stamped(text, at(number));
    const Fields line(record, at(number));
    if (record.has("event")) {
      const std::string& kind = line.string("event");
      if (kind == "checkpoint_error") continue;  // a skipped snapshot
      if (kind != "recovery") {
        line.fail("event " + kind + " is not part of a training stream");
      }
      const int old_world = line.id("old_world");
      const int new_world = line.id("new_world");
      const int resume_epoch = line.id("resume_epoch");
      if (new_world < 1 || new_world >= old_world ||
          (worlds.back() >= 0 && worlds.back() != old_world)) {
        line.fail("recovery does not shrink the running world");
      }
      worlds.back() = old_world;
      worlds.push_back(new_world);
      std::erase_if(standing, [&](const auto& entry) {
        return entry.first.first >= resume_epoch;
      });
      continue;
    }
    for (const auto& [key, type] : kEpochEventKeys) line.get(key, type);
    EpochEvent event;
    event.epoch = line.id("epoch");
    event.rank = line.id("rank");
    event.attempt = static_cast<int>(worlds.size()) - 1;
    event.comm_mode = line.string("comm_mode");
    event.transport = line.string("transport");
    event.probe = line.boolean("probe");
    event.switched_to_allgather = line.boolean("switched_to_allgather");
    event.comm_seconds = line.number("comm_seconds");
    event.sim_seconds = line.number("sim_seconds");
    event.probe_baseline_seconds = line.number("probe_baseline_seconds");
    const double keep_rate = line.number("keep_rate");
    if (!(keep_rate >= 0.0 && keep_rate <= 1.0)) {
      line.fail("keep_rate " + std::to_string(keep_rate) + " outside [0, 1]");
    }
    if (event.probe && event.transport != "allgather") {
      line.fail("probe epoch runs on " + event.transport);
    }
    const std::pair<int, int> key{event.epoch, event.rank};
    if (!standing.try_emplace(key, std::move(event), number).second) {
      line.fail("duplicate event for epoch " + std::to_string(key.first) +
                " rank " + std::to_string(key.second));
    }
  }
  if (standing.empty()) malformed(path, "no epoch events");
  if (worlds.size() == 1) {  // no recovery: every rank that logged
    for (const auto& [key, entry] : standing) {
      worlds[0] = std::max(worlds[0], key.second + 1);
    }
  }

  // One contiguous range of epochs, each logged by a single attempt: once
  // by every rank of that attempt's world.
  std::vector<EpochEvent> events;
  for (auto it = standing.begin(); it != standing.end();) {
    const auto& [first, first_line] = it->second;
    const std::string epoch = "epoch " + std::to_string(first.epoch);
    if (!events.empty() && events.back().epoch + 1 != first.epoch) {
      malformed(at(first_line), "epochs jump from " +
                                    std::to_string(events.back().epoch) +
                                    " to " + std::to_string(first.epoch));
    }
    const int world = worlds[static_cast<std::size_t>(first.attempt)];
    for (int rank = 0; rank < world; ++rank, ++it) {
      if (it == standing.end() || it->first != std::pair{first.epoch, rank}) {
        malformed(at(first_line), epoch + " has no event for rank " +
                                      std::to_string(rank) + " of " +
                                      std::to_string(world));
      }
      const auto& [event, line] = it->second;
      if (event.attempt != first.attempt) {
        malformed(at(line), epoch + " is logged by two attempts");
      }
      events.push_back(event);
    }
    if (it != standing.end() && it->first.first == first.epoch) {
      malformed(at(it->second.second),
                epoch + " has a rank outside the world of " +
                    std::to_string(world));
    }
  }
  return events;
}

void check_tracks(const std::vector<SpanRecord>& spans,
                  const std::map<int, std::string>& track_labels,
                  const std::vector<EpochEvent>& events,
                  const std::string& trace_path) {
  // Each track is one sequential program, so its spans either follow or
  // contain each other; a partial overlap means broken span plumbing
  // (e.g. two ranks writing one tid).
  std::map<int, std::vector<const SpanRecord*>> tracks;
  for (const SpanRecord& span : spans) tracks[span.tid].push_back(&span);
  for (auto& [tid, track] : tracks) {
    std::sort(track.begin(), track.end(),
              [](const SpanRecord* a, const SpanRecord* b) {
                return a->ts_us != b->ts_us ? a->ts_us < b->ts_us
                                            : a->dur_us > b->dur_us;
              });
    std::vector<double> open_ends;  // ends of the enclosing spans
    for (const SpanRecord* span : track) {
      const double end = span->ts_us + span->dur_us;
      while (!open_ends.empty() && open_ends.back() <= span->ts_us) {
        open_ends.pop_back();
      }
      if (!open_ends.empty() && end > open_ends.back()) {
        malformed(trace_path, "span " + span->name + " on track " +
                                  std::to_string(tid) +
                                  " partially overlaps its enclosing span");
      }
      open_ends.push_back(end);
    }
  }
  for (const EpochEvent& event : events) {
    const std::string label = "rank " + std::to_string(event.rank);
    const auto it = track_labels.find(event.rank);
    if (it == track_labels.end() || it->second != label ||
        tracks.count(event.rank) == 0) {
      malformed(trace_path, "no track \"" + label + "\" carrying spans");
    }
  }
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

  // Within each attempt (recovery.rebuild spans end one), pair a rank's
  // i-th "epoch" span (by start time) with its i-th event (by epoch
  // number); collectives attribute to the enclosing epoch span by
  // interval overlap.
  std::vector<double> rebuilds;
  for (const SpanRecord& span : spans) {
    if (span.name == "recovery.rebuild") rebuilds.push_back(span.ts_us);
  }
  std::sort(rebuilds.begin(), rebuilds.end());
  using Track = std::pair<int, int>;  // (rank, attempt)
  std::map<Track, std::vector<const SpanRecord*>> epoch_spans;
  std::map<int, std::vector<const SpanRecord*>> comm_spans;  // by tid
  for (const SpanRecord& span : spans) {
    if (span.name == "epoch") {
      const auto attempt = static_cast<int>(
          std::upper_bound(rebuilds.begin(), rebuilds.end(), span.ts_us) -
          rebuilds.begin());
      epoch_spans[{span.tid, attempt}].push_back(&span);
    }
    if (is_collective(span.name)) comm_spans[span.tid].push_back(&span);
  }
  for (auto& [track, list] : epoch_spans) {
    std::stable_sort(list.begin(), list.end(),
                     [](const SpanRecord* a, const SpanRecord* b) {
                       return a->ts_us < b->ts_us;
                     });
  }

  std::map<Track, std::size_t> paired;  // events paired so far, per track
  for (const auto& [epoch, ranks] : by_epoch) {
    EpochAnalysis analysis;
    analysis.epoch = epoch;
    bool complete = true;
    double dur_sum = 0.0, dur_max = -1.0, comm_fraction_sum = 0.0;
    for (const auto& [rank, event] : ranks) {
      const Track key{rank, event->attempt};
      const std::size_t position = paired[key]++;
      const auto track = epoch_spans.find(key);
      if (track == epoch_spans.end() || position >= track->second.size()) {
        complete = false;
        continue;
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
