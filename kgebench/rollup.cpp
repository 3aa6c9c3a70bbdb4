#include "rollup.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/json.hpp"

namespace kgebench {

namespace {

// Span ends are start + duration, each printed round-trip exact but summed
// here; allow a rounding slack when testing containment.
constexpr double kSlackUs = 1e-3;

bool contains(const dynkge::obs::SpanRecord& outer,
              const dynkge::obs::SpanRecord& inner) {
  return inner.ts_us >= outer.ts_us - kSlackUs &&
         inner.ts_us + inner.dur_us <=
             outer.ts_us + outer.dur_us + kSlackUs;
}

}  // namespace

std::map<std::string, LayerTime> self_times(
    const std::vector<dynkge::obs::SpanRecord>& spans) {
  std::map<int, std::vector<const dynkge::obs::SpanRecord*>> tracks;
  for (const auto& span : spans) tracks[span.tid].push_back(&span);

  std::map<std::string, LayerTime> out;
  for (auto& [tid, track] : tracks) {
    // Parents sort before their children: earlier start first, and at
    // equal starts the longer span first.
    std::sort(track.begin(), track.end(), [](const auto* a, const auto* b) {
      if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
      return a->dur_us > b->dur_us;
    });
    std::vector<std::vector<std::pair<double, double>>> children(
        track.size());
    std::vector<std::size_t> open;  // indices of the enclosing spans
    for (std::size_t i = 0; i < track.size(); ++i) {
      while (!open.empty() && !contains(*track[open.back()], *track[i])) {
        open.pop_back();
      }
      if (!open.empty()) {
        children[open.back()].emplace_back(
            track[i]->ts_us, track[i]->ts_us + track[i]->dur_us);
      }
      open.push_back(i);
    }
    for (std::size_t i = 0; i < track.size(); ++i) {
      const auto& span = *track[i];
      const double covered = dynkge::obs::interval_union(
          std::move(children[i]), span.ts_us, span.ts_us + span.dur_us);
      LayerTime& layer = out[span.name];
      layer.self_seconds += (span.dur_us - covered) * 1e-6;
      layer.total_seconds += span.dur_us * 1e-6;
      ++layer.count;
    }
  }
  return out;
}

std::map<std::string, std::uint64_t> counter_deltas(
    const std::map<std::string, std::uint64_t>& before,
    const std::map<std::string, std::uint64_t>& after) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, end] : after) {
    const auto it = before.find(name);
    const std::uint64_t start = it == before.end() ? 0 : it->second;
    if (end < start) {
      throw std::runtime_error("counter " + name +
                               " went backwards inside the window");
    }
    out[name] = end - start;
  }
  for (const auto& [name, start] : before) {
    if (after.count(name) == 0) {
      throw std::runtime_error("counter " + name +
                               " vanished inside the window");
    }
  }
  return out;
}

std::map<std::string, std::uint64_t> registry_counters(
    const std::string& registry_json) {
  const dynkge::util::JsonValue root =
      dynkge::util::parse_json(registry_json);
  std::map<std::string, std::uint64_t> out;
  if (!root.has("counters")) return out;
  for (const auto& [name, value] : root.at("counters").object) {
    out[name] = static_cast<std::uint64_t>(value.number);
  }
  return out;
}

Percentile percentile(std::vector<double> samples, int percent) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty() || percent < 1 || percent > 100) return out;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  // ceil(percent * n / 100) in integers: 0.99 * 1000 is not 990 in doubles.
  const std::size_t rank =
      (static_cast<std::size_t>(percent) * n + 99) / 100;
  out.value = samples[rank - 1];
  out.beyond = n - rank;
  out.reported = out.beyond >= 10;
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace kgebench
