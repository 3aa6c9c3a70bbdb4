// EventLog — append-only JSONL stream for structured run events.
//
// One line per event, each a self-contained JSON object, so a whole
// training run can be replayed and plotted offline (`jq`, pandas,
// `dynkge analyze`, whose loaders in obs/analysis state the contract a
// training stream meets). Writers are cold-path (once per epoch per
// rank); a mutex serializes lines so concurrent ranks never interleave
// bytes within a line.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>

namespace dynkge::obs {

/// Version stamped into every telemetry artifact this build writes: each
/// JSONL event line and the trace file's top-level metadata. Consumers
/// (obs/analysis) reject a missing stamp or a version they do not
/// understand instead of misreading renamed fields. Bump when an existing
/// field changes meaning; adding fields is backward-compatible.
inline constexpr int kTelemetrySchemaVersion = 1;

class EventLog {
 public:
  /// Open (truncate) `path` for writing. Throws if it cannot be opened.
  explicit EventLog(const std::string& path);

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Append one JSON object as its own line, stamping
  /// `"schema_version":N` as its first field. `json` must be a complete
  /// serialized object without a trailing newline; anything that does not
  /// start with '{' throws std::invalid_argument. Thread-safe.
  void write_line(const std::string& json);

  std::uint64_t lines_written() const;

  /// Flush buffered lines to disk (also happens on destruction).
  void flush();

 private:
  mutable std::mutex mu_;
  std::ofstream out_;
  std::uint64_t lines_ = 0;
};

}  // namespace dynkge::obs
