// Micro-benchmarks (google-benchmark) for the serving layer: the entity
// scan alone (ComplEx at 1, 4, 8, 25 and 32 queries; DistMult, TransE and
// RotatE at 25), single-query full-scan baseline vs TopKScorer (serial /
// parallel) vs the full InferenceService batch path with cold and warm
// caches.
#include <benchmark/benchmark.h>

#include "harness/micro_main.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "kge/model_factory.hpp"
#include "serve/service.hpp"

namespace {

using dynkge::kge::EntityId;
using dynkge::kge::EntityQuery;
using dynkge::kge::KgeModel;
using dynkge::kge::RelationId;
using dynkge::serve::Direction;
using dynkge::serve::InferenceService;
using dynkge::serve::ServiceConfig;
using dynkge::serve::TopKQuery;
using dynkge::serve::TopKScorer;
using dynkge::util::Rng;
using dynkge::util::ThreadPool;
using dynkge::util::ZipfSampler;

constexpr std::int32_t kEntities = 20000;
constexpr std::int32_t kRelations = 64;
constexpr std::int32_t kRank = 32;
constexpr std::int32_t kTopK = 10;

std::shared_ptr<const KgeModel> make_shared_model(const char* name) {
  auto m = dynkge::kge::make_model(name, kEntities, kRelations, kRank);
  Rng rng(77);
  m->init(rng);
  return m;
}

const std::shared_ptr<const KgeModel>& shared_model() {
  static const std::shared_ptr<const KgeModel> model =
      make_shared_model("complex");
  return model;
}

std::vector<TopKQuery> make_stream(std::size_t count,
                                   std::size_t distinct) {
  Rng rng(5);
  std::vector<TopKQuery> pool(distinct);
  for (auto& q : pool) {
    q.direction =
        rng.next_bernoulli(0.5) ? Direction::kTail : Direction::kHead;
    q.entity = static_cast<EntityId>(rng.next_below(kEntities));
    q.relation = static_cast<RelationId>(rng.next_below(kRelations));
    q.k = kTopK;
  }
  const ZipfSampler skew(distinct, 1.0);
  std::vector<TopKQuery> stream(count);
  for (auto& q : stream) q = pool[skew.sample(rng)];
  return stream;
}

/// The entity scan alone, driven as TopKScorer drives it: every query of
/// the pass over each 1024-entity block. Items are (query, candidate)
/// pairs, so one query (candidates side by side), a short tile (4), the
/// evaluator's tile (8), serve_churn's misses (25: three tiles and a
/// one-query pass) and whole tiles (32) compare per pair.
void run_entity_scan(benchmark::State& state, const KgeModel& model) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<EntityQuery> queries;
  for (const TopKQuery& q : make_stream(n, n)) {
    queries.push_back({q.direction, q.entity, q.relation});
  }
  constexpr std::size_t kBlock = 1024;
  std::vector<double> scores(n * kBlock);
  for (auto _ : state) {
    for (EntityId begin = 0; begin < kEntities;
         begin += static_cast<EntityId>(kBlock)) {
      const auto count = std::min(
          kBlock, static_cast<std::size_t>(kEntities - begin));
      model.score_entities_block(queries, begin, count, scores);
      benchmark::DoNotOptimize(scores.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * kEntities);
}

void BM_EntityScan(benchmark::State& state) {
  run_entity_scan(state, *shared_model());
}
BENCHMARK(BM_EntityScan)
    ->ArgName("queries")
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Arg(25)
    ->Arg(32);

/// The other models' scans at serve_churn's 25 misses. TransE and RotatE
/// scan each direction apart, so the leftover tile is a short one.
void BM_EntityScanModel(benchmark::State& state, const char* name) {
  static std::map<std::string, std::shared_ptr<const KgeModel>> models;
  std::shared_ptr<const KgeModel>& model = models[name];
  if (model == nullptr) model = make_shared_model(name);
  run_entity_scan(state, *model);
}
BENCHMARK_CAPTURE(BM_EntityScanModel, distmult, "distmult")
    ->ArgName("queries")
    ->Arg(25);
BENCHMARK_CAPTURE(BM_EntityScanModel, transe, "transe")
    ->ArgName("queries")
    ->Arg(25);
BENCHMARK_CAPTURE(BM_EntityScanModel, rotate, "rotate")
    ->ArgName("queries")
    ->Arg(25);

/// The pre-serve inference path: full scan into a dense score vector,
/// then partial_sort. One query per iteration.
void BM_SingleQueryScan(benchmark::State& state) {
  const KgeModel& model = *shared_model();
  const auto stream = make_stream(512, 512);
  std::vector<double> scores(kEntities);
  std::vector<EntityId> order(kEntities);
  std::size_t next = 0;
  for (auto _ : state) {
    const auto& q = stream[next++ % stream.size()];
    if (q.direction == Direction::kTail) {
      model.score_all_tails(q.entity, q.relation, scores);
    } else {
      model.score_all_heads(q.relation, q.entity, scores);
    }
    for (std::size_t e = 0; e < order.size(); ++e) {
      order[e] = static_cast<EntityId>(e);
    }
    std::partial_sort(order.begin(), order.begin() + kTopK, order.end(),
                      [&](EntityId a, EntityId b) {
                        return scores[a] > scores[b];
                      });
    benchmark::DoNotOptimize(order.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SingleQueryScan);

/// Bounded-heap blocked scan, one thread: no dense score vector, no full
/// sort — the win independent of parallelism and caching.
void BM_TopKScorerSerial(benchmark::State& state) {
  const KgeModel& model = *shared_model();
  const TopKScorer scorer;
  const auto stream = make_stream(512, 512);
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scorer.topk(stream[next++ % stream.size()], model));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TopKScorerSerial);

/// One query fanned out across N workers (latency-oriented parallelism).
void BM_TopKScorerParallel(benchmark::State& state) {
  const KgeModel& model = *shared_model();
  const TopKScorer scorer;
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  const auto stream = make_stream(512, 512);
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scorer.topk(stream[next++ % stream.size()], model, pool));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TopKScorerParallel)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

/// The full service path on a Zipf-skewed stream, batch of 32 per
/// iteration: across-query parallelism plus the LRU cache (cold = cache
/// disabled, warm = cache sized for the working set).
void BM_ServiceBatch(benchmark::State& state) {
  ServiceConfig config;
  config.num_threads = static_cast<int>(state.range(0));
  config.cache_capacity = static_cast<std::size_t>(state.range(1));
  InferenceService service(shared_model(), nullptr, config);
  const auto stream = make_stream(4096, 256);
  constexpr std::size_t kBatch = 32;
  std::size_t next = 0;
  for (auto _ : state) {
    const std::span<const TopKQuery> batch(stream.data() + next, kBatch);
    next = (next + kBatch) % (stream.size() - kBatch);
    benchmark::DoNotOptimize(service.topk_batch(batch));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kBatch));
}
BENCHMARK(BM_ServiceBatch)
    ->ArgNames({"threads", "cache"})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({2, 1024})
    ->Args({4, 1024})
    ->UseRealTime();

}  // namespace

DYNKGE_MICRO_BENCH_MAIN("serve_throughput")
