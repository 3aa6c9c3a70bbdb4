// train_dense and train_combined: repeated core::DistributedTrainer::train()
// calls on a synthetic dataset generated from the workload seed.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "calibration.hpp"
#include "core/trainer.hpp"
#include "kge/synthetic.hpp"
#include "obs/analysis.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rollup.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "workloads.hpp"

namespace kgebench {
namespace {

using namespace dynkge;

/// train_dense runs a fixed epoch count: long enough that its traced run
/// has more than 1 000 steps (so the step p99 has ten samples beyond it),
/// short enough for several calls per window.
constexpr int kDenseEpochs = 3;
/// train_combined runs to a fixed epoch budget with the plateau schedule
/// armed: the learning rate is cut once or twice, but the stop itself
/// (after 83 to 109 epochs on seeds 11-20) does not fire. Validation
/// accuracy flattens at 96-98% by epoch 2, so where the plateau stop lands
/// is set by validation noise; its epoch count alone spread 0.20 (quartile
/// distance over median) across seeds, most of time_to_model_ms's bound.
constexpr int kCombinedEpochs = 40;

/// What train() produced on the default seed (7) and the held-out seed
/// (1009). A change that trains different bytes fails the run on these
/// seeds. A change meant to alter the floating-point result replaces the
/// entry with the digest, epochs, MRR and TCA the run prints.
struct Recorded {
  const char* workload;
  std::uint64_t seed;
  const char* digest;
  int epochs;
  double mrr;
  double tca;
};
const std::vector<Recorded> kRecorded = {
    {"train_dense", 7, "1b6bbe69c0523d53", 3, 0.50652957680841038,
     95.97582926202108},
    {"train_dense", 1009, "c0fb9aa2a1b34627", 3, 0.52395899749214314,
     95.985691573926871},
    {"train_combined", 7, "250bacd8be2dd9a0", 40, 0.88570640246578258,
     96.879150066401067},
    {"train_combined", 1009, "988b38ddbb95046e", 40, 0.90528932442521615,
     96.973684210526315},
};

/// Quality every seed must reach, so that a change that trains a worse
/// model the same way every time (fewer negatives, skipped updates) fails
/// on any seed. Set well below the lowest seen on seeds 100-129 and a
/// dozen others: MRR 0.400 (train_dense, seed 34) and 0.833
/// (train_combined, seed 101); TCA never below 95.5%.
struct QualityFloor {
  const char* workload;
  double mrr;
  double tca;  ///< percent
};
const std::vector<QualityFloor> kFloors = {
    {"train_dense", 0.30, 86.0},
    {"train_combined", 0.70, 86.0},
};

struct TrainSetup {
  kge::SyntheticSpec data;
  core::TrainConfig config;
};

TrainSetup describe(const RunOptions& options) {
  TrainSetup setup;
  core::TrainConfig& config = setup.config;
  config.model_name = "complex";
  config.embedding_rank = 32;
  config.lr.base_lr = 0.01;
  config.seed = util::derive_seed(options.seed, 0x7a41u);
  if (options.workload == "train_dense") {
    setup.data = kge::SyntheticSpec::fb250k_mini();
    config.num_nodes = 2;
    config.host_threads = 2;
    config.batch_size = 500;
    config.strategy = core::StrategyConfig::baseline_allreduce(1);
    config.max_epochs = kDenseEpochs;
    // The learning rate is never reduced, so the plateau stop never fires.
    config.lr.tolerance = std::numeric_limits<int>::max();
  } else if (options.workload == "train_combined") {
    setup.data = kge::SyntheticSpec::fb15k_mini();
    config.num_nodes = 4;
    // 2 host threads, not 4: with every vCPU busy, the CPU time per epoch
    // moved 1.8x between runs minutes apart on a shared 4-vCPU host.
    config.host_threads = 2;
    config.batch_size = 1000;
    config.strategy = core::StrategyConfig::drs_1bit_rp_ss(8, 1);
    config.max_epochs = kCombinedEpochs;
    config.checkpoint.dir = options.workdir + "/checkpoints";
    config.checkpoint.every = 10;
  } else {
    throw std::invalid_argument("unknown training workload " +
                                options.workload);
  }
  setup.data.seed = util::derive_seed(options.seed, 0xda7au);
  return setup;
}

/// One train() call and what the benchmark keeps of it.
struct Call {
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;   ///< process CPU, every thread
  std::size_t positives = 0;  ///< training positives retired
  std::uint64_t digest = 0;
  /// host_slowness() of the call's window: the median of the calibrations
  /// before its first call and after each.
  double slowness = 1.0;
  core::TrainReport report;   ///< model released after digesting

  /// Rank compute CPU, process CPU and TT in reference-host seconds: the
  /// measured CPU divided by the slowness. TT's modeled comm is not CPU.
  double compute_cpu_ref() const {
    return report.compute_cpu_seconds / slowness;
  }
  double cpu_ref() const { return cpu_seconds / slowness; }
  double tt_sim_ref() const {
    double comm = 0.0;
    for (const core::EpochRecord& epoch : report.epoch_log) {
      comm += epoch.comm_seconds;
    }
    return (report.total_sim_seconds - comm) / slowness + comm;
  }
};

/// One train() call on a trainer built for it, in the untraced and the
/// traced window alike. Only train() is measured; building the trainer is
/// set-up work.
Call train_once(const kge::Dataset& dataset, const core::TrainConfig& config,
                obs::TraceWriter* bench_trace) {
  core::DistributedTrainer trainer(dataset, config);
  Call call;
  const double cpu_before = process_cpu_seconds();
  const util::Stopwatch clock;
  {
    const obs::TraceSpan span(bench_trace, "bench.train", kClientTid);
    call.report = trainer.train();
  }
  call.wall_seconds = clock.seconds();
  call.cpu_seconds = process_cpu_seconds() - cpu_before;
  call.positives = static_cast<std::size_t>(call.report.epochs) *
                   dataset.train().size();
  call.digest = model_digest(*call.report.model);
  call.report.model.reset();
  return call;
}

/// Call `once` until `seconds` have passed, and at least twice (the
/// determinism check compares calls), calibrating the host on `threads`
/// threads before the first call and after each. One calibration is too
/// short to trust on its own (consecutive ones differ by up to 20%), and
/// the host's phases last minutes, so every call gets the window's median.
template <typename Once>
std::vector<Call> timed_window(double seconds, int threads, Once once) {
  std::vector<Call> calls;
  std::vector<double> slowness = {host_slowness(threads)};
  const util::Stopwatch clock;
  do {
    calls.push_back(once());
    slowness.push_back(host_slowness(threads));
  } while (clock.seconds() < seconds || calls.size() < 2);
  for (Call& call : calls) call.slowness = median(slowness);
  return calls;
}

template <typename Field>
std::vector<double> collect(const std::vector<Call>& calls, Field field) {
  std::vector<double> out;
  for (const Call& call : calls) out.push_back(field(call));
  return out;
}

/// Round-trip exact, so a printed value can be copied into kRecorded.
std::string exact(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void check_calls(const std::vector<Call>& calls, const RunOptions& options,
                 Report& report) {
  const Call& first = calls.front();
  const core::TrainReport& result = first.report;
  bool consistent = true;
  bool identical = true;
  for (const Call& call : calls) {
    consistent = consistent && call.report.replicas_consistent;
    identical = identical && call.digest == first.digest &&
                call.report.epochs == result.epochs &&
                call.report.ranking.mrr == result.ranking.mrr &&
                call.report.tca == result.tca;
  }
  report.check(consistent, "replicas_consistent on every train() call");
  report.check(identical,
               "model digest " + hex64(first.digest) + ", epochs " +
                   std::to_string(result.epochs) + ", MRR " +
                   exact(result.ranking.mrr) + ", TCA " + exact(result.tca) +
                   " identical across " + std::to_string(calls.size()) +
                   " train() calls");
  for (const Recorded& recorded : kRecorded) {
    if (options.workload != recorded.workload ||
        options.seed != recorded.seed) {
      continue;
    }
    report.check(hex64(first.digest) == recorded.digest &&
                     result.epochs == recorded.epochs &&
                     result.ranking.mrr == recorded.mrr &&
                     result.tca == recorded.tca,
                 "digest, epochs, MRR and TCA equal those recorded for "
                 "seed " + std::to_string(recorded.seed) + " (digest " +
                     recorded.digest + ")");
  }
  for (const QualityFloor& floor : kFloors) {
    if (options.workload != floor.workload) continue;
    report.check(result.ranking.mrr >= floor.mrr && result.tca >= floor.tca,
                 "MRR >= " + exact(floor.mrr) + " and TCA >= " +
                     exact(floor.tca) + " (the quality floor)");
  }
  if (options.workload == "train_combined") {
    report.check(result.checkpoints_written > 0,
                 "snapshots written (" +
                     std::to_string(result.checkpoints_written) + ")");
  }
  report.count_ops(calls.size(), 0);
}

/// Per-layer numbers of one traced call, from its trace and event files.
struct CallLayers {
  std::map<std::string, LayerTime> layers;
  double epoch_seconds = 0.0;  ///< rank-summed "epoch" span time
  double final_eval_seconds = 0.0;
  double straggler_skew = 0.0;
  std::vector<double> step_ms;  ///< raw per-step compute wall times
};

CallLayers roll_up_call(const std::string& trace_path,
                        const std::string& events_path, int num_nodes) {
  const std::vector<obs::SpanRecord> spans =
      obs::load_trace_spans(trace_path);
  const obs::AnalysisReport analysis =
      obs::analyze(spans, obs::load_events(events_path));

  CallLayers out;
  out.layers = self_times(spans);
  out.epoch_seconds = out.layers["epoch"].total_seconds;

  double last_epoch_end = 0.0;
  double train_end = 0.0;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "epoch") {
      last_epoch_end = std::max(last_epoch_end, span.ts_us + span.dur_us);
    } else if (span.name == "bench.train") {
      train_end = span.ts_us + span.dur_us;
    }
  }
  out.final_eval_seconds = (train_end - last_epoch_end) * 1e-6;

  double skew_sum = 0.0;
  for (const obs::EpochAnalysis& epoch : analysis.epochs) {
    skew_sum += epoch.straggler_skew;
  }
  out.straggler_skew =
      analysis.epochs.empty()
          ? 0.0
          : skew_sum / static_cast<double>(analysis.epochs.size());

  // A step's compute is its hard-negative, forward/backward, row-selection
  // and Adam spans; Adam closes the step.
  static const std::set<std::string> kStepSpans = {
      "hard_negatives", "forward_backward", "grad_select", "adam_update"};
  std::vector<std::vector<const obs::SpanRecord*>> ranks(
      static_cast<std::size_t>(num_nodes));
  for (const obs::SpanRecord& span : spans) {
    if (span.tid >= 0 && span.tid < num_nodes &&
        kStepSpans.count(span.name) != 0) {
      ranks[static_cast<std::size_t>(span.tid)].push_back(&span);
    }
  }
  for (auto& track : ranks) {
    std::sort(track.begin(), track.end(),
              [](const auto* a, const auto* b) { return a->ts_us < b->ts_us; });
    double step_us = 0.0;
    for (const obs::SpanRecord* span : track) {
      step_us += span->dur_us;
      if (span->name == "adam_update") {
        out.step_ms.push_back(step_us * 1e-3);
        step_us = 0.0;
      }
    }
  }
  return out;
}

void report_end_to_end(const std::vector<double>& setup_seconds,
                       const std::vector<Call>& calls, Report& report) {
  const std::size_t n = calls.size();
  report.metric("setup_s", median(setup_seconds), setup_seconds.size(),
                "dataset generation + trainer construction, calibrated CPU, "
                "median");
  report.metric("peak_rss_mb", peak_rss_mib(), 1);
  const auto ppcs = collect(calls, [](const Call& c) {
    return static_cast<double>(c.positives) / c.compute_cpu_ref();
  });
  const auto wall = collect(calls, [](const Call& c) { return c.wall_seconds; });
  const auto sim = collect(calls, [](const Call& c) { return c.tt_sim_ref(); });
  const auto cpu_per_epoch = collect(calls, [](const Call& c) {
    return c.cpu_ref() / static_cast<double>(c.report.epochs);
  });
  report.metric("throughput", median(ppcs), n,
                "= positives_per_cpu_s, median over train() calls");
  report.metric("time_to_model_ms", 1e3 * median(sim), n,
                "= tt_sim_s, median over train() calls");
  report.metric("cpu_ms", 1e3 * median(cpu_per_epoch), n,
                "process CPU of train() per epoch, median over calls");

  const core::TrainReport& first = calls.front().report;
  report.detail("host_slowness", calls.front().slowness, "1", n + 1,
                "reference kernel CPU / reference host's, median");
  report.detail("raw_positives_per_cpu_s",
                median(collect(calls,
                               [](const Call& c) {
                                 return static_cast<double>(c.positives) /
                                        c.report.compute_cpu_seconds;
                               })),
                "1/s", n, "throughput before calibration");
  report.detail("raw_tt_sim_s",
                median(collect(calls,
                               [](const Call& c) {
                                 return c.report.total_sim_seconds;
                               })),
                "s", n, "time_to_model_ms before calibration, in s");
  report.detail("raw_cpu_ms",
                1e3 * median(collect(calls,
                                     [](const Call& c) {
                                       return c.cpu_seconds /
                                              static_cast<double>(
                                                  c.report.epochs);
                                     })),
                "ms", n, "cpu_ms before calibration");
  report.detail("train_wall_s", median(wall), "s", n);
  report.detail("mrr", first.ranking.mrr, "1", n, "identical across calls");
  report.detail("tca", first.tca, "%", n, "identical across calls");
  report.detail("epochs", first.epochs, "count", n, "per train() call");
}

void report_per_layer_train(const std::vector<Call>& untraced,
                            const std::vector<Call>& traced,
                            const std::vector<CallLayers>& rolled,
                            const std::map<std::string, std::uint64_t>& counters,
                            Report& report) {
  const std::size_t n = rolled.size();
  const double calls = static_cast<double>(n);
  std::map<std::string, double> self;
  double epoch_seconds = 0.0, final_eval = 0.0, skew = 0.0;
  std::vector<double> step_ms;
  for (const CallLayers& call : rolled) {
    for (const auto& [name, time] : call.layers) {
      // exchange.allreduce / .allgather / .param_server are one layer.
      self[name.rfind("exchange.", 0) == 0 ? "exchange" : name] +=
          time.self_seconds;
    }
    epoch_seconds += call.epoch_seconds;
    final_eval += call.final_eval_seconds;
    skew += call.straggler_skew;
    step_ms.insert(step_ms.end(), call.step_ms.begin(), call.step_ms.end());
  }
  const auto share = [&](const std::string& span) {
    return epoch_seconds > 0.0 ? self[span] / epoch_seconds : 0.0;
  };

  // Every span the trainer records inside an epoch, by layer. Their shares
  // plus the epoch's own self time (core.unattributed_share) sum to 1.
  struct Layer {
    const char* metric;
    const char* span;
  };
  static const Layer kLayers[] = {
      {"kge.forward_backward", "forward_backward"},
      {"kge.adam", "adam_update"},
      {"core.hard_negatives", "hard_negatives"},
      {"core.grad_select", "grad_select"},
      {"core.quantize.encode", "quantize.encode"},
      {"core.quantize.decode", "quantize.decode"},
      {"comm.exchange", "exchange"},
      {"kge.validation", "validation"},
      {"kge.checkpoint_write", "checkpoint.write"},
  };
  double shares = share("epoch");
  for (const Layer& layer : kLayers) {
    report.metric(std::string(layer.metric) + "_s", self[layer.span] / calls,
                  n, "self time summed over ranks, per train() call");
    report.metric(std::string(layer.metric) + "_share", share(layer.span), n);
    shares += share(layer.span);
  }
  report.metric("core.unattributed_share", share("epoch"), n,
                "epoch time under no child span");
  report.detail("sum of epoch shares", shares, "1", n);

  const auto counter = [&](const char* name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double scored = counter("train.ss_candidates_scored");
  report.metric("core.hard_negatives.candidates_scored", scored / calls, n,
                "per train() call");
  report.metric("core.hard_negatives.kept_ratio",
                scored > 0.0 ? counter("train.ss_candidates_kept") / scored
                             : 0.0,
                n);

  double rows_before = 0.0, rows_sent = 0.0;
  for (const Call& call : traced) {
    for (const core::EpochRecord& epoch : call.report.epoch_log) {
      rows_before += epoch.rows_before_selection;
      rows_sent += epoch.rows_sent;
    }
  }
  report.metric("core.grad_select.keep_rate",
                rows_before > 0.0 ? rows_sent / rows_before : 0.0, n,
                "entity rows sent / rows before selection");

  const core::TrainReport& first = traced.front().report;
  std::size_t comm_calls = 0;
  for (const auto& kind : first.comm_stats.per_kind) comm_calls += kind.calls;
  report.metric("comm.bytes_on_wire",
                static_cast<double>(first.comm_stats.total_bytes()), 1,
                "rank 0, per train() call");
  report.metric("comm.calls", static_cast<double>(comm_calls), 1,
                "rank 0, per train() call");
  report.metric("comm.modeled_s", first.comm_stats.total_modeled_seconds(),
                1, "rank 0, per train() call");
  report.metric("core.drs.allreduce_fraction", first.allreduce_fraction, 1);

  report.percentile_metric("core.step_compute_p50_ms",
                           percentile(step_ms, 50), "raw span samples");
  report.percentile_metric("core.step_compute_p99_ms",
                           percentile(step_ms, 99), "raw span samples");
  report.metric("core.straggler_skew", skew / calls, n,
                "obs::analyze, mean over epochs");
  report.metric("kge.final_eval_s", final_eval / calls, n,
                "train() wall after the last epoch span, per call");
  report.metric("util.pool.host_speedup",
                median(collect(untraced,
                               [](const Call& c) {
                                 return c.report.host_speedup();
                               })),
                untraced.size(), "untraced calls");
  const auto cpu = [](const Call& c) { return c.cpu_ref(); };
  report.metric("obs.trace_overhead_share",
                median(collect(traced, cpu)) / median(collect(untraced, cpu)) -
                    1.0,
                traced.size() + untraced.size(),
                "traced / untraced train() process CPU - 1");
}

}  // namespace

void run_train_workload(const RunOptions& options, Report& report) {
  const TrainSetup setup = describe(options);

  std::optional<kge::Dataset> dataset;
  // Set-up runs on one thread.
  const std::vector<double> setup_seconds = time_setups(options.trace, 1, [&] {
    dataset.reset();
    dataset.emplace(kge::generate_synthetic(setup.data));
    const core::DistributedTrainer trainer(*dataset, setup.config);
  });

  const int threads = setup.config.host_threads;
  const std::vector<Call> calls = timed_window(options.seconds, threads, [&] {
    return train_once(*dataset, setup.config, nullptr);
  });
  if (!options.trace) {
    report_end_to_end(setup_seconds, calls, report);
    check_calls(calls, options, report);
    return;
  }

  // Traced window: fresh trace and event sinks per call (the analyzer
  // pairs epoch spans with epoch events in order, so one call per file),
  // one metrics registry for the whole window.
  obs::MetricsRegistry registry;
  const auto counters_before = registry_counters(registry.to_json());
  const std::string trace_path = options.workdir + "/trace.json";
  const std::string events_path = options.workdir + "/events.jsonl";
  std::vector<CallLayers> rolled;
  const std::vector<Call> traced = timed_window(options.seconds, threads, [&] {
    obs::TraceWriter trace;
    Call call;
    {
      obs::EventLog events(events_path);
      core::TrainConfig config = setup.config;
      config.telemetry = {&registry, &trace, &events};
      call = train_once(*dataset, config, &trace);
    }
    trace.write(trace_path);
    rolled.push_back(
        roll_up_call(trace_path, events_path, setup.config.num_nodes));
    return call;
  });
  const auto counters = counter_deltas(
      counters_before, registry_counters(registry.to_json()));
  check_calls(traced, options, report);
  report.check(traced.front().digest == calls.front().digest,
               "traced run trains the same bytes as the untraced run");
  report_per_layer_train(calls, traced, rolled, counters, report);
}

}  // namespace kgebench
