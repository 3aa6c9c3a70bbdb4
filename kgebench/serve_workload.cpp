// serve_churn: a closed-loop reader issuing topk_batch calls, each followed
// by a writer turn that streams one delta batch into the served model.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "calibration.hpp"
#include "kge/model_factory.hpp"
#include "kge/synthetic.hpp"
#include "obs/analysis.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rollup.hpp"
#include "serve/service.hpp"
#include "stream/delta_ingestor.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/thread_clock.hpp"
#include "workloads.hpp"

namespace kgebench {
namespace {

using namespace dynkge;
using Clock = std::chrono::steady_clock;

// The served model is sized to the fb250k_mini stand-in.
const kge::SyntheticSpec kShape = kge::SyntheticSpec::fb250k_mini();
constexpr std::int32_t kRank = 32;

constexpr int kPoolThreads = 2;
/// The reader and one pool thread are busy at a time, so the calibration
/// kernel runs on two threads.
constexpr int kKernelThreads = 2;
constexpr std::size_t kCacheCapacity = 4096;
constexpr std::uint64_t kVersionLag = 8;

constexpr std::size_t kDistinctQueries = 32768;
constexpr std::size_t kBatchQueries = 32;
constexpr std::int32_t kTopK = 10;
constexpr std::size_t kWarmupBatches = 256;

constexpr std::size_t kDeltaBatch = 64;
/// A round is one topk_batch call, then one delta batch submitted and
/// flushed. The work of a window is fixed by the seed and --seconds: it
/// runs kRoundsPerSecond rounds per second asked for (a round takes about
/// 12 ms on a 4-vCPU Xeon host), not as many as fit in the time, so a
/// slower host cannot change how many reads land between publishes.
constexpr double kRoundsPerSecond = 80.0;
/// CPU metrics are medians over this many equal chunks of the window's
/// rounds, so a burst of host contention moves one chunk, not the result.
constexpr std::size_t kChunks = 20;

/// Everything generated from the seed before the service exists.
struct Inputs {
  std::vector<serve::TopKQuery> identities;  ///< Zipf rank order
  std::vector<kge::TripleList> delta_batches;  ///< one per round
};

/// Popular entities (a seeded permutation, Zipf(1.0) over it) anchor both
/// the popular queries and most deltas, so deltas invalidate cached
/// answers that readers want.
Inputs make_inputs(std::uint64_t seed, std::size_t num_batches) {
  util::Rng rng(util::derive_seed(seed, 0x5e12u));
  const auto entities = static_cast<std::size_t>(kShape.num_entities);
  const auto relations = static_cast<std::size_t>(kShape.num_relations);
  std::vector<kge::EntityId> by_popularity(entities);
  for (std::size_t i = 0; i < entities; ++i) {
    by_popularity[i] = static_cast<kge::EntityId>(i);
  }
  for (std::size_t i = entities - 1; i > 0; --i) {
    std::swap(by_popularity[i], by_popularity[rng.next_below(i + 1)]);
  }
  const util::ZipfSampler entity_skew(entities, 1.0);
  const util::ZipfSampler relation_skew(relations, 1.0);

  Inputs inputs;
  std::unordered_set<std::uint64_t> seen;
  while (inputs.identities.size() < kDistinctQueries) {
    serve::TopKQuery query;
    query.direction = rng.next_bernoulli(0.5) ? serve::Direction::kTail
                                              : serve::Direction::kHead;
    query.entity = by_popularity[entity_skew.sample(rng)];
    query.relation = static_cast<kge::RelationId>(rng.next_below(relations));
    query.k = kTopK;
    if (seen.insert(serve::pack_query(query)).second) {
      inputs.identities.push_back(query);
    }
  }
  inputs.delta_batches.resize(num_batches);
  for (kge::TripleList& batch : inputs.delta_batches) {
    batch.resize(kDeltaBatch);
    for (kge::Triple& delta : batch) {
      delta.head = by_popularity[entity_skew.sample(rng)];
      delta.relation =
          static_cast<kge::RelationId>(relation_skew.sample(rng));
      delta.tail = by_popularity[entity_skew.sample(rng)];
    }
  }
  return inputs;
}

std::unique_ptr<kge::KgeModel> make_base_model(std::uint64_t seed) {
  auto model = kge::make_model("complex", kShape.num_entities,
                               kShape.num_relations, kRank);
  util::Rng rng(util::derive_seed(seed, 0x30de1u));
  model->init(rng);
  return model;
}

/// The closed-loop reader's query stream: Zipf(1.0) over the identities.
class QueryStream {
 public:
  QueryStream(const Inputs& inputs, std::uint64_t seed)
      : identities_(inputs.identities),
        skew_(inputs.identities.size(), 1.0),
        rng_(seed) {}

  void next(std::vector<serve::TopKQuery>& batch) {
    batch.resize(kBatchQueries);
    for (auto& query : batch) query = identities_[skew_.sample(rng_)];
  }

 private:
  const std::vector<serve::TopKQuery>& identities_;
  util::ZipfSampler skew_;
  util::Rng rng_;
};

stream::IngestConfig ingest_config(std::uint64_t seed) {
  stream::IngestConfig config;
  // The writer flushes every kDeltaBatch itself; never auto-flush.
  config.batch_size = 1u << 20;
  config.refresh.seed = util::derive_seed(seed, 0x4ef7u);
  return config;
}

/// The system under test, built by one set-up.
struct Served {
  std::unique_ptr<serve::InferenceService> service;
  std::unique_ptr<stream::DeltaIngestor> ingestor;
};

struct Sinks {
  obs::MetricsRegistry metrics;
  obs::TraceWriter trace;
  std::optional<obs::EventLog> events;
};

Served build(const Inputs& inputs, std::uint64_t seed, Sinks* sinks) {
  serve::ServiceConfig service_config;
  service_config.num_threads = kPoolThreads;
  service_config.cache_capacity = kCacheCapacity;
  service_config.cache_max_version_lag = kVersionLag;
  stream::IngestConfig config = ingest_config(seed);
  if (sinks != nullptr) {
    service_config.metrics = &sinks->metrics;
    service_config.trace = &sinks->trace;
    config.telemetry = {&sinks->metrics, &sinks->trace, &*sinks->events};
  }
  Served served;
  served.service = std::make_unique<serve::InferenceService>(
      make_base_model(seed), nullptr, service_config);
  if (sinks != nullptr) {
    served.service->store().set_telemetry(
        {&sinks->metrics, &sinks->trace, nullptr});
  }
  config.admission = &served.service->admission();
  served.ingestor = std::make_unique<stream::DeltaIngestor>(
      served.service->store(), config);

  // Warm the cache with traffic from the same distribution.
  QueryStream warmup(inputs, util::derive_seed(seed, 0x3a3du));
  std::vector<serve::TopKQuery> batch;
  for (std::size_t i = 0; i < kWarmupBatches; ++i) {
    warmup.next(batch);
    served.service->topk_batch(batch);
  }
  return served;
}

/// CPU time of one chunk of rounds.
struct Chunk {
  std::size_t batches = 0;
  double cpu_seconds = 0.0;     ///< process CPU, every thread
  double writer_seconds = 0.0;  ///< thread CPU of submit_batch + flush
  double reader_seconds() const { return cpu_seconds - writer_seconds; }
};

/// What one timed window measured.
struct Window {
  double seconds = 0.0;
  std::uint64_t queries = 0;
  std::uint64_t reads_failed = 0;  ///< null or malformed answers
  std::uint64_t distinct = 0;      ///< distinct queries summed over batches
  std::vector<Chunk> chunks;
  /// host_slowness() over the window: the median of the calibrations
  /// before its first chunk and after each. One calibration is too short
  /// to trust on its own (consecutive ones differ by up to 20%), and the
  /// host's phases last minutes.
  double slowness = 1.0;
  std::vector<double> batch_ms;       ///< client-side topk_batch latency
  std::vector<double> lag_ms;         ///< delta batch submitted -> served
  std::vector<double> update_cpu_ms_raw;  ///< thread CPU of submit + flush
  std::vector<double> flush_ms;
  std::vector<double> flush_cpu_ms;
  std::uint64_t deltas_accepted = 0;
  serve::CacheStats cache_before, cache_after;
  serve::ServiceSnapshot service_before, service_after;
  stream::IngestStats ingest_before, ingest_after;
  /// Traced windows only: registry counters and the trace-time bounds.
  std::map<std::string, std::uint64_t> counters_before, counters_after;
  double trace_begin_us = 0.0, trace_end_us = 0.0;

  double qps() const { return static_cast<double>(queries) / seconds; }

  /// Queries per CPU second of the reader and the pool (the writer's
  /// turns excluded), median over chunks. `calibrated`: in reference-host
  /// CPU seconds (CPU divided by the window's slowness).
  double queries_per_cpu_s(bool calibrated) const {
    std::vector<double> per_chunk;
    for (const Chunk& chunk : chunks) {
      per_chunk.push_back(
          static_cast<double>(chunk.batches * kBatchQueries) /
          chunk.reader_seconds() * (calibrated ? slowness : 1.0));
    }
    return median(per_chunk);
  }

  /// Process CPU per topk_batch call, the writer's turns included, median
  /// over chunks; `calibrated` as above.
  double cpu_ms_per_batch(bool calibrated) const {
    std::vector<double> per_chunk;
    for (const Chunk& chunk : chunks) {
      per_chunk.push_back(1e3 * chunk.cpu_seconds /
                          static_cast<double>(chunk.batches) /
                          (calibrated ? slowness : 1.0));
    }
    return median(per_chunk);
  }

  /// Thread CPU of the writer's turns per round, median over rounds;
  /// `calibrated` as above.
  double update_cpu_ms(bool calibrated) const {
    return median(update_cpu_ms_raw) / (calibrated ? slowness : 1.0);
  }
};

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// One timed window: a round per delta batch, each a topk_batch call and
/// then the writer's turn on the same thread, so publishes land between
/// reads at fixed points and the cache sees the same sequence on any host.
Window run_window(Served& served, const Inputs& inputs, std::uint64_t seed,
                  Sinks* sinks) {
  obs::TraceWriter* trace = sinks != nullptr ? &sinks->trace : nullptr;
  Window window;
  if (sinks != nullptr) {
    window.counters_before = registry_counters(sinks->metrics.to_json());
    window.trace_begin_us = sinks->trace.now_us();
  }
  window.service_before = served.service->snapshot();
  window.cache_before = window.service_before.cache;
  window.ingest_before = served.ingestor->stats();

  const std::size_t rounds = inputs.delta_batches.size();
  QueryStream stream(inputs, util::derive_seed(seed, 0xc11eu));
  std::vector<serve::TopKQuery> batch;
  std::unordered_set<std::uint64_t> distinct;
  std::vector<double> slowness = {host_slowness(kKernelThreads)};
  double calibration_seconds = 0.0;  ///< wall time, left out of the window
  Chunk chunk;
  double chunk_start = process_cpu_seconds();
  const Clock::time_point start = Clock::now();
  for (std::size_t round = 0; round < rounds; ++round) {
    stream.next(batch);
    const Clock::time_point begin = Clock::now();
    std::vector<serve::QueryCache::ResultPtr> answers;
    {
      const obs::TraceSpan span(trace, "bench.topk_batch", kClientTid);
      answers = served.service->topk_batch(batch);
    }
    window.batch_ms.push_back(ms_between(begin, Clock::now()));
    window.queries += batch.size();
    for (const auto& answer : answers) {
      if (answer == nullptr ||
          answer->size() != static_cast<std::size_t>(kTopK)) {
        ++window.reads_failed;
      }
    }
    distinct.clear();
    for (const auto& query : batch) distinct.insert(serve::pack_query(query));
    window.distinct += distinct.size();

    // The writer's turn: submit one delta batch and publish it.
    const double update_start = util::thread_cpu_seconds();
    const Clock::time_point arrival = Clock::now();
    window.deltas_accepted +=
        served.ingestor->submit_batch(inputs.delta_batches[round]);
    const double flush_start = util::thread_cpu_seconds();
    const Clock::time_point flush_begin = Clock::now();
    {
      const obs::TraceSpan span(trace, "bench.flush", kWriterTid);
      served.ingestor->flush();
    }
    const Clock::time_point served_at = Clock::now();
    const double update_end = util::thread_cpu_seconds();
    window.flush_cpu_ms.push_back(1e3 * (update_end - flush_start));
    window.update_cpu_ms_raw.push_back(1e3 * (update_end - update_start));
    window.flush_ms.push_back(ms_between(flush_begin, served_at));
    window.lag_ms.push_back(ms_between(arrival, served_at));

    ++chunk.batches;
    chunk.writer_seconds += update_end - update_start;
    if ((round + 1) * kChunks / rounds != round * kChunks / rounds) {
      chunk.cpu_seconds = process_cpu_seconds() - chunk_start;
      const Clock::time_point calibration_start = Clock::now();
      slowness.push_back(host_slowness(kKernelThreads));
      calibration_seconds += std::chrono::duration<double>(
                                 Clock::now() - calibration_start)
                                 .count();
      window.chunks.push_back(chunk);
      chunk = Chunk{};
      chunk_start = process_cpu_seconds();
    }
  }
  window.seconds =
      std::chrono::duration<double>(Clock::now() - start).count() -
      calibration_seconds;
  window.slowness = median(slowness);

  window.service_after = served.service->snapshot();
  window.cache_after = window.service_after.cache;
  window.ingest_after = served.ingestor->stats();
  if (sinks != nullptr) {
    window.trace_end_us = sinks->trace.now_us();
    window.counters_after = registry_counters(sinks->metrics.to_json());
  }
  return window;
}

std::map<std::string, std::uint64_t> cache_counters(
    const serve::CacheStats& stats) {
  return {{"hits", stats.hits},
          {"misses", stats.misses},
          {"evictions", stats.evictions},
          {"invalidations", stats.invalidations},
          {"invalidated_entries", stats.invalidated_entries}};
}

/// Output checks: no read failed or was shed, no delta was shed, the final
/// snapshot equals a single-threaded replay of the same delta batches onto
/// the same base, and sampled answers equal a cache-free serial scan.
void check_outputs(Served& served, const Inputs& inputs, std::uint64_t seed,
                   const Window& window, Report& report) {
  const std::uint64_t shed =
      window.service_after.shed - window.service_before.shed;
  const std::uint64_t deltas_shed =
      window.ingest_after.shed - window.ingest_before.shed;
  report.count_ops(window.queries + window.deltas_accepted + deltas_shed,
                   window.reads_failed + shed + deltas_shed);
  report.check(window.reads_failed == 0 && shed == 0,
               "no read failed or was shed (" +
                   std::to_string(window.queries) + " queries)");
  report.check(deltas_shed == 0 && window.deltas_accepted ==
                                       inputs.delta_batches.size() *
                                           kDeltaBatch,
               "no delta shed (" + std::to_string(window.deltas_accepted) +
                   " accepted)");

  stream::SnapshotStore replay_store;
  replay_store.init(
      std::shared_ptr<const kge::KgeModel>(make_base_model(seed)));
  stream::DeltaIngestor replay(replay_store, ingest_config(seed));
  for (const kge::TripleList& batch : inputs.delta_batches) {
    replay.submit_batch(batch);
    replay.flush();
  }
  const stream::PinnedModel served_final = served.service->store().acquire();
  const stream::PinnedModel replayed = replay_store.acquire();
  report.check(served_final.version == replayed.version &&
                   model_digest(*served_final.model) ==
                       model_digest(*replayed.model),
               "final snapshot v" + std::to_string(served_final.version) +
                   " digest " + hex64(model_digest(*served_final.model)) +
                   " equals a single-threaded replay");

  // Clear the cache (a full swap to the same bytes), then answer the most
  // popular queries twice: once scored on the pool, once from the cache.
  served.service->swap_model(kge::clone_model(*served_final.model));
  const std::vector<serve::TopKQuery> sample(inputs.identities.begin(),
                                             inputs.identities.begin() + 64);
  const serve::TopKScorer scorer;
  bool equal = true;
  for (int pass = 0; pass < 2; ++pass) {
    const auto answers = served.service->topk_batch(sample);
    for (std::size_t i = 0; i < sample.size(); ++i) {
      equal = equal && answers[i] != nullptr &&
              *answers[i] == scorer.topk(sample[i], *served_final.model);
    }
  }
  report.check(equal, "64 served answers (scored, then cached) equal a "
                      "cache-free serial TopKScorer::topk");
}

void report_end_to_end(const std::vector<double>& setup_seconds,
                       const Window& window, Report& report) {
  const Percentile p50 = percentile(window.batch_ms, 50);
  const Percentile p99 = percentile(window.batch_ms, 99);
  const Percentile lag50 = percentile(window.lag_ms, 50);
  const Percentile lag99 = percentile(window.lag_ms, 99);
  const std::size_t chunks = window.chunks.size();
  report.metric("setup_s", median(setup_seconds), setup_seconds.size(),
                "service + ingestor construction and cache warm-up, "
                "calibrated CPU, median");
  report.metric("peak_rss_mb", peak_rss_mib(), 1);
  report.metric("throughput", window.queries_per_cpu_s(true), chunks,
                "queries per reader + pool CPU second, median over chunks");
  report.metric("time_to_model_ms", window.update_cpu_ms(true),
                window.update_cpu_ms_raw.size(),
                "thread CPU of submit_batch + flush, delta batch to served "
                "version, median");
  report.metric("cpu_ms", window.cpu_ms_per_batch(true), chunks,
                "process CPU per round (topk_batch + the writer's turn), "
                "median over chunks");
  report.detail("host_slowness", window.slowness, "1",
                chunks + 1, "reference kernel CPU / reference host's, median");
  report.detail("raw_throughput", window.queries_per_cpu_s(false), "1/s",
                chunks, "throughput before calibration");
  report.detail("raw_time_to_model_ms", window.update_cpu_ms(false), "ms",
                window.update_cpu_ms_raw.size());
  report.detail("raw_cpu_ms", window.cpu_ms_per_batch(false), "ms", chunks);

  report.detail("qps", window.qps(), "1/s", window.batch_ms.size(),
                "wall, over the window");
  report.detail("p50_ms", p50.value, "ms", p50.samples);
  report.detail("p99_ms", p99.value, "ms", p99.samples,
                p99.reported ? "" : "not reportable");
  report.detail("update_lag_p50_ms", lag50.value, "ms", lag50.samples,
                "wall, submit_batch to served");
  report.detail("update_lag_p99_ms", lag99.value, "ms", lag99.samples,
                lag99.reported ? "" : "not reportable");
  report.detail("window_s", window.seconds, "s", 1);
}

void report_per_layer(const Window& untraced, const Window& traced,
                      const Sinks& sinks, const Inputs& inputs,
                      const std::string& workdir, Served& served,
                      Report& report) {
  const auto cache = counter_deltas(cache_counters(traced.cache_before),
                                    cache_counters(traced.cache_after));
  const double lookups =
      static_cast<double>(cache.at("hits") + cache.at("misses"));
  const double publishes = static_cast<double>(
      traced.service_after.publishes - traced.service_before.publishes);
  report.metric("serve.cache.hit_rate",
                lookups > 0 ? static_cast<double>(cache.at("hits")) / lookups
                            : 0.0,
                static_cast<std::size_t>(lookups), "window delta");
  report.metric("serve.cache.evictions",
                static_cast<double>(cache.at("evictions")), 1,
                "window delta");
  report.metric("serve.cache.invalidated_per_publish",
                publishes > 0 ? static_cast<double>(
                                    cache.at("invalidated_entries")) /
                                    publishes
                              : 0.0,
                static_cast<std::size_t>(publishes));
  report.metric("serve.batch.distinct_ratio",
                static_cast<double>(traced.distinct) /
                    static_cast<double>(traced.queries),
                traced.batch_ms.size());

  report.percentile_metric("stream.flush_p50_ms",
                           percentile(traced.flush_ms, 50), "flush() wall");
  report.percentile_metric("stream.flush_p99_ms",
                           percentile(traced.flush_ms, 99), "flush() wall");
  report.metric("stream.flush_cpu_ms", median(traced.flush_cpu_ms),
                traced.flush_cpu_ms.size(), "flush() thread CPU, median");

  // The program records serving and streaming spans on one track (tid 0);
  // serve.* come only from topk_batch and stream.* only from the writer's
  // turn, so move each to its caller's track before the rollup. Spans of
  // the warm-up and of the checks fall outside the window.
  const std::string trace_path = workdir + "/trace.json";
  sinks.trace.write(trace_path);
  std::vector<obs::SpanRecord> spans;
  for (obs::SpanRecord& span : obs::load_trace_spans(trace_path)) {
    if (span.ts_us < traced.trace_begin_us ||
        span.ts_us + span.dur_us > traced.trace_end_us) {
      continue;
    }
    if (span.name.rfind("serve.", 0) == 0) span.tid = kClientTid;
    if (span.name.rfind("stream.", 0) == 0) span.tid = kWriterTid;
    spans.push_back(std::move(span));
  }
  const auto layers = self_times(spans);
  const auto self = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.self_seconds;
  };
  report.metric("stream.refresh_s", self("stream.refresh"),
                traced.flush_ms.size(), "self time over the window");
  report.metric("stream.swap_s", self("stream.swap"), traced.flush_ms.size(),
                "self time over the window");

  const auto ingest_delta = counter_deltas(
      {{"batches", traced.ingest_before.batches},
       {"touched", traced.ingest_before.touched_rows}},
      {{"batches", traced.ingest_after.batches},
       {"touched", traced.ingest_after.touched_rows}});
  const double batches = static_cast<double>(ingest_delta.at("batches"));
  report.metric("stream.touched_rows_per_batch",
                batches > 0 ? static_cast<double>(ingest_delta.at("touched")) /
                                  batches
                            : 0.0,
                static_cast<std::size_t>(batches));
  // Adam row updates are reported only in the delta_batch events.
  double row_updates = 0.0;
  {
    std::ifstream events(workdir + "/events.jsonl");
    std::string line;
    while (std::getline(events, line)) {
      const util::JsonValue event = util::parse_json(line);
      if (event.has("row_updates")) row_updates += event.at("row_updates").number;
    }
  }
  report.metric("stream.row_updates", row_updates, 1, "window total");
  const auto counters =
      counter_deltas(traced.counters_before, traced.counters_after);
  const auto counter = [&](const char* name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  report.metric("stream.versions_published",
                counter("stream.snapshots_published"), 1, "window total");
  report.metric("serve.reads_failed", static_cast<double>(traced.reads_failed),
                1);
  report.metric("serve.reads_shed", counter("serve.shed"), 1);
  report.metric("stream.deltas_shed", counter("stream.deltas_shed"), 1);

  // Serial scan cost on a fixed sample, timed by the benchmark.
  const stream::PinnedModel pin = served.service->store().acquire();
  const serve::TopKScorer scorer;
  std::vector<double> scan_us;
  for (std::size_t i = 0; i < 256; ++i) {
    const serve::TopKQuery& query =
        inputs.identities[(i * 127) % inputs.identities.size()];
    const double before = util::thread_cpu_seconds();
    const serve::TopKResult result = scorer.topk(query, *pin.model);
    scan_us.push_back(1e6 * (util::thread_cpu_seconds() - before));
    if (result.empty()) throw std::logic_error("empty serial scan");
  }
  report.metric("serve.scorer.miss_us", median(scan_us), scan_us.size(),
                "thread CPU of serial TopKScorer::topk, median");
  report.metric("obs.trace_overhead_share",
                traced.cpu_ms_per_batch(true) /
                        untraced.cpu_ms_per_batch(true) -
                    1.0,
                traced.chunks.size() + untraced.chunks.size(),
                "traced / untraced process CPU per round - 1");
}

}  // namespace

void run_serve_workload(const RunOptions& options, Report& report) {
  const auto rounds = static_cast<std::size_t>(
      std::max(static_cast<double>(kChunks),
               options.seconds * kRoundsPerSecond));
  const Inputs inputs = make_inputs(options.seed, rounds);

  std::optional<Served> served;
  const std::vector<double> setup_seconds =
      time_setups(options.trace, kKernelThreads, [&] {
        served.reset();
        served.emplace(build(inputs, options.seed, nullptr));
      });
  const Window window = run_window(*served, inputs, options.seed, nullptr);
  if (!options.trace) {
    report_end_to_end(setup_seconds, window, report);
    check_outputs(*served, inputs, options.seed, window, report);
    return;
  }

  // The traced run: a fresh system with every sink attached.
  Sinks sinks;
  sinks.events.emplace(options.workdir + "/events.jsonl");
  Served traced_system = build(inputs, options.seed, &sinks);
  const Window traced =
      run_window(traced_system, inputs, options.seed, &sinks);
  sinks.events->flush();
  check_outputs(traced_system, inputs, options.seed, traced, report);
  report_per_layer(window, traced, sinks, inputs, options.workdir,
                   traced_system, report);
}

}  // namespace kgebench
