// Chrome trace-event recording: TraceWriter collects complete ("X") events
// on a shared monotonic timebase, TraceSpan is the RAII timer that feeds
// it. The JSON output loads directly in Perfetto / chrome://tracing.
//
// Track layout: one pid (0, the process), one tid per logical track —
// the trainer uses tid = rank for the simulated ranks and tid = the
// configured num_nodes for host-side work (also after an elastic shrink,
// so a dead rank's track keeps its "rank N" label), the serving layer
// tid 0. set_thread_name() attaches the human-readable track labels via
// "M" metadata events.
//
// Disabled cost: a TraceSpan constructed with a null writer performs no
// clock read and no allocation — the disabled hot path is two pointer
// checks. Enabled spans take one steady_clock read at each end and a
// short mutex-guarded push.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dynkge::obs {

class TraceWriter {
 public:
  TraceWriter() : epoch_(std::chrono::steady_clock::now()) {}
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Microseconds since this writer was constructed (the trace timebase).
  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Record one complete event. Thread-safe.
  void add_complete_event(std::string_view name, int tid, double ts_us,
                          double dur_us);

  /// Label a track ("rank 0", "host", ...). Thread-safe.
  void set_thread_name(int tid, const std::string& name);

  std::size_t size() const;

  /// {"traceEvents":[...]} — loadable by Perfetto / chrome://tracing.
  std::string to_json() const;

  /// Write to_json() to `path`. Throws on I/O failure.
  void write(const std::string& path) const;

 private:
  struct Event {
    std::string name;
    int tid = 0;
    double ts_us = 0.0;
    double dur_us = 0.0;
  };

  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Event> events_;
  std::map<int, std::string> thread_names_;
};

/// Scoped timer: measures construction-to-destruction on the writer's
/// timebase and appends one complete event. A null writer disables the
/// span entirely (no clock reads).
class TraceSpan {
 public:
  TraceSpan(TraceWriter* writer, std::string_view name, int tid)
      : writer_(writer) {
    if (writer_ != nullptr) {
      name_ = name;
      tid_ = tid;
      start_us_ = writer_->now_us();
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() {
    if (writer_ != nullptr) {
      writer_->add_complete_event(name_, tid_, start_us_,
                                  writer_->now_us() - start_us_);
    }
  }

 private:
  TraceWriter* writer_;
  std::string_view name_;
  int tid_ = 0;
  double start_us_ = 0.0;
};

}  // namespace dynkge::obs
