#include "serve/service.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "kge/serialize.hpp"
#include "util/stopwatch.hpp"

namespace dynkge::serve {

std::string ServiceSnapshot::summary() const {
  const auto format = obs::LatencyHistogram::format_seconds;
  std::string out = "v";
  out += std::to_string(model_version) + "  queries " +
         std::to_string(queries) + "  mean " + format(mean_latency_seconds) +
         "  p50 " + format(p50_seconds) + "  p95 " + format(p95_seconds) +
         "  p99 " + format(p99_seconds);
  out += "  cache " + std::to_string(cache.hits) + "/" +
         std::to_string(cache.hits + cache.misses) + " hits (" +
         std::to_string(static_cast<int>(100.0 * cache.hit_rate() + 0.5)) +
         "%), " + std::to_string(cache.evictions) + " evictions";
  if (shed != 0) out += "  shed " + std::to_string(shed);
  return out;
}

InferenceService::InferenceService(std::shared_ptr<const kge::KgeModel> model,
                                   const kge::Dataset* dataset,
                                   const ServiceConfig& config)
    : admission_(config.max_inflight),
      pool_(static_cast<std::size_t>(std::max(1, config.num_threads))),
      scorer_(dataset),
      cache_(config.cache_capacity),
      latency_(config.metrics != nullptr
                   ? &config.metrics->histogram("serve.latency_seconds")
                   : &own_latency_),
      trace_(config.trace) {
  store_.init(std::move(model));
  if (config.metrics != nullptr) {
    query_counter_ = &config.metrics->counter("serve.queries");
    batch_counter_ = &config.metrics->counter("serve.batches");
    shed_counter_ = &config.metrics->counter("serve.shed");
    invalidation_counter_ =
        &config.metrics->counter("serve.cache.invalidations");
    invalidated_entries_counter_ =
        &config.metrics->counter("serve.cache.invalidated_entries");
  }
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
    std::shared_ptr<const kge::KgeModel> model) {
  return store_.publish(std::move(model));
}

QueryCache::ResultPtr InferenceService::topk(const TopKQuery& query) {
  const stream::ReadTicket ticket(&admission_, 1);
  if (!ticket.admitted()) {
    if (shed_counter_ != nullptr) shed_counter_->add(1);
    return nullptr;
  }
  const util::Stopwatch clock;
  const stream::PinnedModel pin = store_.acquire();
  validate_query(query, *pin.model);
  auto result = cache_.get(query, pin.version);
  if (!result) {
    result = std::make_shared<const TopKResult>(
        scorer_.topk(query, *pin.model, pool_));
    cache_.put(query, result, pin.version);
  }
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
  for (const TopKQuery& q : queries) validate_query(q, *pin.model);

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

  // Each distinct query is looked up once; the misses are then scored
  // together in one pass over the entity table, split across the pool.
  std::vector<QueryCache::ResultPtr> answers(distinct.size());
  std::vector<TopKQuery> misses;
  std::vector<std::size_t> miss_slots;
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    answers[i] = cache_.get(distinct[i], pin.version);
    if (!answers[i]) {
      misses.push_back(distinct[i]);
      miss_slots.push_back(i);
    }
  }
  std::vector<TopKResult> scored =
      scorer_.topk_batch(misses, *pin.model, pool_);
  for (std::size_t m = 0; m < misses.size(); ++m) {
    auto result = std::make_shared<const TopKResult>(std::move(scored[m]));
    cache_.put(misses[m], result, pin.version);
    answers[miss_slots[m]] = std::move(result);
  }

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
