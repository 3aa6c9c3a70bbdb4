// Tests of the benchmark's own arithmetic: the span self-time rollup, the
// counter-window deltas and the percentile reporting rule.
#include <cmath>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "rollup.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

void expect_near(double actual, double expected, const std::string& what) {
  expect(std::fabs(actual - expected) < 1e-9,
         what + " (got " + std::to_string(actual) + ", want " +
             std::to_string(expected) + ")");
}

template <typename Fn>
void expect_throws(Fn fn, const std::string& what) {
  try {
    fn();
  } catch (const std::runtime_error&) {
    return;
  }
  expect(false, what + " did not throw");
}

dynkge::obs::SpanRecord span(const std::string& name, int tid, double from_us,
                             double to_us) {
  return {name, tid, from_us, to_us - from_us};
}

void test_self_times() {
  // Track 0: an epoch with two sequential children, one of them holding a
  // grandchild, two children overlapping each other, and a span that
  // crosses the epoch's end (so it is nobody's child). Track 1: a parent
  // and a child that start together.
  const std::vector<dynkge::obs::SpanRecord> spans = {
      span("epoch", 0, 0, 100),
      span("hard_negatives", 0, 10, 30),
      span("forward_backward", 0, 30, 60),
      span("inner", 0, 40, 50),
      span("a", 0, 70, 90),
      span("b", 0, 80, 95),
      span("crossing", 0, 95, 110),
      span("epoch", 1, 0, 50),
      span("forward_backward", 1, 0, 40),
  };
  const auto layers = kgebench::self_times(spans);
  // Epoch 0: 100 us minus the union of its children [10,60] and [70,95];
  // epoch 1: 50 minus 40.
  expect_near(layers.at("epoch").self_seconds, (25.0 + 10.0) * 1e-6,
              "epoch self time");
  expect_near(layers.at("epoch").total_seconds, 150e-6, "epoch total time");
  expect(layers.at("epoch").count == 2, "epoch span count");
  expect_near(layers.at("forward_backward").self_seconds, (20.0 + 40.0) * 1e-6,
              "forward_backward self time excludes its grandchild");
  expect_near(layers.at("inner").self_seconds, 10e-6, "leaf self time");
  expect_near(layers.at("a").self_seconds, 20e-6, "overlapping sibling a");
  expect_near(layers.at("b").self_seconds, 15e-6, "overlapping sibling b");
  expect_near(layers.at("crossing").self_seconds, 15e-6,
              "a span crossing its neighbour's end keeps its whole time");
  expect_near(layers.at("hard_negatives").self_seconds, 20e-6,
              "hard_negatives self time");
}

void test_counter_deltas() {
  const auto deltas =
      kgebench::counter_deltas({{"a", 5}, {"b", 10}}, {{"a", 7}, {"b", 10},
                                                       {"c", 3}});
  expect(deltas.at("a") == 2, "delta of a moved counter");
  expect(deltas.at("b") == 0, "delta of a still counter");
  expect(deltas.at("c") == 3, "a counter born in the window counts from 0");
  expect_throws(
      [] { kgebench::counter_deltas({{"a", 5}}, {{"a", 4}}); },
      "a counter that went backwards");
  expect_throws([] { kgebench::counter_deltas({{"a", 5}}, {}); },
                "a counter that vanished");

  dynkge::obs::MetricsRegistry registry;
  registry.counter("serve.queries").add(3);
  const auto before = kgebench::registry_counters(registry.to_json());
  registry.counter("serve.queries").add(4);
  registry.counter("serve.shed").add(1);
  const auto window = kgebench::counter_deltas(
      before, kgebench::registry_counters(registry.to_json()));
  expect(window.at("serve.queries") == 4, "registry counter window delta");
  expect(window.at("serve.shed") == 1, "registry counter created in window");
}

void test_percentile_rule() {
  std::vector<double> samples;
  for (int i = 1000; i >= 1; --i) samples.push_back(i);
  const auto p99 = kgebench::percentile(samples, 99);
  expect(p99.value == 990.0 && p99.beyond == 10 && p99.reported &&
             p99.samples == 1000,
         "p99 of 1000 samples has ten beyond it");
  samples.pop_back();
  const auto thin = kgebench::percentile(samples, 99);
  expect(!thin.reported && thin.beyond == 9 && thin.samples == 999,
         "p99 of 999 samples is not reportable");
  const auto p50 = kgebench::percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                         12, 13, 14, 15, 16, 17, 18, 19, 20},
                                        50);
  expect(p50.value == 10.0 && p50.beyond == 10 && p50.reported,
         "p50 of 20 samples");
  const auto p50_thin = kgebench::percentile({1, 2, 3, 4, 5}, 50);
  expect(p50_thin.value == 3.0 && !p50_thin.reported,
         "p50 of 5 samples is not reportable");
  expect(!kgebench::percentile({}, 50).reported, "no samples");
  expect(kgebench::median({3, 1, 2}) == 2.0, "odd median");
  expect(kgebench::median({4, 1, 2, 3}) == 2.5, "even median");
}

}  // namespace

int main() {
  test_self_times();
  test_counter_deltas();
  test_percentile_rule();
  if (failures == 0) std::cout << "kgebench_tests: all passed\n";
  return failures == 0 ? 0 : 1;
}
