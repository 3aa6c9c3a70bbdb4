#include "serve/service.hpp"

#include <algorithm>
#include <future>
#include <unordered_map>
#include <utility>

#include "kge/serialize.hpp"
#include "util/stopwatch.hpp"

namespace dynkge::serve {

std::string ServiceSnapshot::summary() const {
  const auto format = obs::LatencyHistogram::format_seconds;
  std::string out = "v" + std::to_string(model_version) + "  queries " +
                    std::to_string(queries) + "  mean " +
                    format(mean_latency_seconds) + "  p50 " +
                    format(p50_seconds) + "  p95 " + format(p95_seconds) +
                    "  p99 " + format(p99_seconds);
  out += "  cache " + std::to_string(cache.hits) + "/" +
         std::to_string(cache.hits + cache.misses) + " hits (" +
         std::to_string(static_cast<int>(100.0 * cache.hit_rate() + 0.5)) +
         "%), " + std::to_string(cache.evictions) + " evictions";
  if (shed != 0) out += "  shed " + std::to_string(shed);
  return out;
}

namespace {

stream::AdmissionConfig admission_config(const ServiceConfig& config) {
  stream::AdmissionConfig out;
  out.max_read_inflight = config.max_inflight;
  out.defer_updates_above = config.defer_updates_above;
  return out;
}

}  // namespace

InferenceService::InferenceService(const kge::KgeModel& model,
                                   const kge::Dataset* dataset,
                                   const ServiceConfig& config)
    : admission_(admission_config(config)),
      pool_(static_cast<std::size_t>(std::max(1, config.num_threads))),
      scorer_(dataset, config.block_size),
      cache_(config.cache_capacity, config.cache_shards),
      latency_(config.metrics != nullptr
                   ? &config.metrics->histogram("serve.latency_seconds")
                   : &own_latency_) {
  store_.init(model);
  wire(config);
}

InferenceService::InferenceService(std::unique_ptr<kge::KgeModel> model,
                                   const kge::Dataset* dataset,
                                   const ServiceConfig& config)
    : admission_(admission_config(config)),
      pool_(static_cast<std::size_t>(std::max(1, config.num_threads))),
      scorer_(dataset, config.block_size),
      cache_(config.cache_capacity, config.cache_shards),
      latency_(config.metrics != nullptr
                   ? &config.metrics->histogram("serve.latency_seconds")
                   : &own_latency_) {
  store_.init(std::shared_ptr<const kge::KgeModel>(std::move(model)));
  wire(config);
}

void InferenceService::wire(const ServiceConfig& config) {
  if (config.metrics != nullptr) {
    query_counter_ = &config.metrics->counter("serve.queries");
    batch_counter_ = &config.metrics->counter("serve.batches");
    shed_counter_ = &config.metrics->counter("serve.shed");
    invalidation_counter_ =
        &config.metrics->counter("serve.cache.invalidations");
    invalidated_entries_counter_ =
        &config.metrics->counter("serve.cache.invalidated_entries");
  }
  trace_ = config.trace;
  cache_.set_max_version_lag(config.cache_max_version_lag);
  store_.add_publish_observer(
      [this](std::uint64_t version,
             const std::vector<kge::EntityId>& touched) {
        on_publish(version, touched);
      });
}

void InferenceService::on_publish(std::uint64_t /*version*/,
                                  const std::vector<kge::EntityId>& touched) {
  // Empty touched set means "everything may have changed" (full swap):
  // drop the whole cache. A delta refresh names its touched entities and
  // gets the keyed path.
  const std::uint64_t dropped =
      touched.empty() ? cache_.clear() : cache_.invalidate_entities(touched);
  if (invalidation_counter_ != nullptr) invalidation_counter_->add(1);
  if (invalidated_entries_counter_ != nullptr) {
    invalidated_entries_counter_->add(dropped);
  }
}

void InferenceService::record_latency(double seconds, std::size_t queries) {
  for (std::size_t i = 0; i < queries; ++i) latency_->record(seconds);
  if (query_counter_ != nullptr) query_counter_->add(queries);
}

std::unique_ptr<InferenceService> InferenceService::from_checkpoint(
    const std::string& path, const kge::Dataset* dataset,
    const ServiceConfig& config) {
  return std::make_unique<InferenceService>(kge::load_model(path), dataset,
                                            config);
}

std::uint64_t InferenceService::swap_model(
    std::unique_ptr<kge::KgeModel> model) {
  return store_.publish(std::move(model));
}

std::uint64_t InferenceService::reload_checkpoint(const std::string& path) {
  return swap_model(kge::load_model(path));
}

QueryCache::ResultPtr InferenceService::scored_or_cached(
    const TopKQuery& query, const stream::PinnedModel& pin, bool parallel) {
  if (auto cached = cache_.get(query, pin.version)) return cached;
  auto result = std::make_shared<const TopKResult>(
      parallel ? scorer_.topk(query, *pin.model, pool_)
               : scorer_.topk(query, *pin.model));
  cache_.put(query, result, pin.version);
  return result;
}

QueryCache::ResultPtr InferenceService::topk(const TopKQuery& query) {
  const stream::ReadTicket ticket(&admission_, 1);
  if (!ticket.admitted()) {
    if (shed_counter_ != nullptr) shed_counter_->add(1);
    return nullptr;
  }
  const util::Stopwatch clock;
  const stream::PinnedModel pin = store_.acquire();
  auto result = scored_or_cached(query, pin, /*parallel=*/true);
  record_latency(clock.seconds(), 1);
  return result;
}

std::vector<QueryCache::ResultPtr> InferenceService::topk_batch(
    std::span<const TopKQuery> queries) {
  if (queries.empty()) return {};
  const stream::ReadTicket ticket(&admission_, queries.size());
  if (!ticket.admitted()) {
    if (shed_counter_ != nullptr) shed_counter_->add(queries.size());
    return std::vector<QueryCache::ResultPtr>(queries.size());
  }

  const obs::TraceSpan span(trace_, "serve.batch", 0);
  const util::Stopwatch clock;

  // One pin for the whole batch: every query in it is answered from the
  // same snapshot version, even if a publish lands mid-batch.
  const stream::PinnedModel pin = store_.acquire();

  // Deduplicate: slot -> index into `distinct`.
  std::vector<TopKQuery> distinct;
  std::vector<std::size_t> slot_of;
  slot_of.reserve(queries.size());
  std::unordered_map<std::uint64_t, std::size_t> seen;
  seen.reserve(queries.size());
  for (const TopKQuery& q : queries) {
    const auto [it, inserted] = seen.try_emplace(pack_query(q),
                                                 distinct.size());
    if (inserted) distinct.push_back(q);
    slot_of.push_back(it->second);
  }

  // One pool task per distinct query; each task does a serial blocked
  // scan. With many in-flight queries, across-query parallelism beats
  // splitting each query across the pool (no merge step, no idle tails).
  std::vector<QueryCache::ResultPtr> answers(distinct.size());
  std::vector<std::future<void>> pending;
  pending.reserve(distinct.size());
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    pending.push_back(pool_.submit([this, &answers, &distinct, &pin, i] {
      answers[i] = scored_or_cached(distinct[i], pin, /*parallel=*/false);
    }));
  }
  for (auto& future : pending) future.get();

  std::vector<QueryCache::ResultPtr> results;
  results.reserve(queries.size());
  for (const std::size_t slot : slot_of) results.push_back(answers[slot]);

  // Batch latency is attributed per query: every query in the batch
  // completed within the batch's wall time.
  record_latency(clock.seconds(), queries.size());
  if (batch_counter_ != nullptr) batch_counter_->add(1);
  return results;
}

ServiceSnapshot InferenceService::snapshot() const {
  ServiceSnapshot snapshot;
  snapshot.queries = latency_->count();
  snapshot.shed = admission_.shed_reads();
  snapshot.model_version = store_.current_version();
  snapshot.publishes = store_.publishes();
  snapshot.mean_latency_seconds = latency_->mean_seconds();
  snapshot.p50_seconds = latency_->quantile_seconds(0.50);
  snapshot.p95_seconds = latency_->quantile_seconds(0.95);
  snapshot.p99_seconds = latency_->quantile_seconds(0.99);
  snapshot.cache = cache_.stats();
  return snapshot;
}

void InferenceService::reset_metrics() { latency_->reset(); }

}  // namespace dynkge::serve
