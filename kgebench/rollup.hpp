// The benchmark's arithmetic, kept apart from the workloads so it can be
// tested on hand-built inputs (test_rollup.cpp):
//
//   * self_times — per span name, the time a span spent outside its child
//     spans, summed over every track;
//   * counter_deltas — what a set of monotonic counters did inside a timed
//     window;
//   * percentile — a nearest-rank percentile that is reported only when at
//     least ten samples lie beyond it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/analysis.hpp"

namespace kgebench {

/// Self time of one span name, summed over all its spans and tracks.
struct LayerTime {
  double self_seconds = 0.0;   ///< duration minus the union of its children
  double total_seconds = 0.0;  ///< plain duration
  std::size_t count = 0;       ///< spans of this name
};

/// Build one containment forest per track (tid): a span's parent is the
/// smallest span on its track that fully contains it. A span that only
/// partly overlaps another is not its child; spans that overlap each other
/// under one parent are counted once in that parent (obs::interval_union).
/// Returns per-name totals.
std::map<std::string, LayerTime> self_times(
    const std::vector<dynkge::obs::SpanRecord>& spans);

/// Per-key `after - before` for a set of monotonic counters sampled at the
/// start and the end of a timed window. A key missing from `before` counts
/// from zero. Throws std::runtime_error if a counter went backwards (it was
/// reset inside the window, so the delta would be meaningless).
std::map<std::string, std::uint64_t> counter_deltas(
    const std::map<std::string, std::uint64_t>& before,
    const std::map<std::string, std::uint64_t>& after);

/// All counters of an obs::MetricsRegistry JSON snapshot (its "counters"
/// object).
std::map<std::string, std::uint64_t> registry_counters(
    const std::string& registry_json);

/// A percentile of raw samples, by the nearest-rank rule: the value at
/// rank ceil(p/100 * n) of the sorted samples. `beyond` is the number of
/// samples ranked above it. `reported` is true only when beyond >= 10 —
/// below that, the tail is too thin to call a percentile.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  bool reported = false;
};
Percentile percentile(std::vector<double> samples, int percent);

/// Median (mean of the two middle values for an even count); 0 for none.
double median(std::vector<double> values);

}  // namespace kgebench
