#include "obs/events.hpp"

#include <stdexcept>

namespace dynkge::obs {

EventLog::EventLog(const std::string& path) : out_(path, std::ios::trunc) {
  if (!out_) {
    throw std::runtime_error("EventLog: cannot open " + path);
  }
}

void EventLog::write_line(const std::string& json) {
  if (json.size() < 2 || json.front() != '{') {
    throw std::invalid_argument("EventLog: a line must be a JSON object");
  }
  // Stamp the schema version as the first field so every writer (trainer,
  // serving, streaming) emits versioned records without carrying the key
  // itself.
  const std::lock_guard<std::mutex> lock(mu_);
  out_ << "{\"schema_version\":" << kTelemetrySchemaVersion;
  if (json[1] != '}') out_ << ',';
  out_.write(json.data() + 1, static_cast<std::streamsize>(json.size() - 1));
  out_ << '\n';
  ++lines_;
}

std::uint64_t EventLog::lines_written() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return lines_;
}

void EventLog::flush() {
  const std::lock_guard<std::mutex> lock(mu_);
  out_.flush();
}

}  // namespace dynkge::obs
