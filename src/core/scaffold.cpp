#include "core/scaffold.hpp"

#include "kge/model_factory.hpp"
#include "util/fnv1a.hpp"
#include "util/rng.hpp"

namespace dynkge::core {

kge::TripleList shuffled_train_triples(const kge::Dataset& dataset,
                                       std::uint64_t seed) {
  kge::TripleList triples(dataset.train().begin(), dataset.train().end());
  util::Rng rng(util::derive_seed(seed, 0x5u));
  util::shuffle(triples, rng);
  return triples;
}

std::unique_ptr<kge::KgeModel> init_model(const std::string& name,
                                          const kge::Dataset& dataset,
                                          std::int32_t embedding_rank,
                                          std::uint64_t seed) {
  util::Rng rng(util::derive_seed(seed, 0x1417u));
  auto model = kge::make_model(name, dataset.num_entities(),
                               dataset.num_relations(), embedding_rank);
  model->set_init_scale(0.1f);
  model->init(rng);
  return model;
}

util::ThreadPool host_pool(int threads) {
  return util::ThreadPool(threads > 0
                              ? static_cast<std::size_t>(threads)
                              : util::ThreadPool::hardware_threads());
}

void run_cluster(int world, const comm::CostModelParams& network,
                 comm::FaultInjector* faults, obs::MetricsRegistry* metrics,
                 util::ThreadPool& pool,
                 const std::function<void(comm::Communicator&)>& program) {
  comm::Cluster cluster(world, network);
  if (faults != nullptr) {
    if (metrics != nullptr) faults->set_metrics(metrics);
    cluster.set_fault_injector(faults);
  }
  cluster.run(program, pool);
}

bool replicas_consistent(comm::Communicator& comm,
                         const kge::KgeModel& model, bool with_relations) {
  const auto entities = model.entities().flat();
  std::uint64_t hash = util::fnv1a(entities.data(), entities.size_bytes());
  if (with_relations) {
    const auto relations = model.relations().flat();
    hash = util::fnv1a(relations.data(), relations.size_bytes(), hash);
  }
  // The top 53 bits convert to double exactly.
  const auto as_double = static_cast<double>(hash >> 11);
  const double lo = comm.allreduce_scalar(as_double, comm::ScalarOp::kMin);
  const double hi = comm.allreduce_scalar(as_double, comm::ScalarOp::kMax);
  return lo == hi;
}

void final_metrics(const kge::KgeModel& model, const kge::Dataset& dataset,
                   std::uint64_t seed, std::size_t max_triples,
                   util::ThreadPool* pool, double& tca,
                   kge::RankingMetrics& ranking) {
  const kge::Evaluator evaluator(dataset);
  tca = evaluator.triple_classification_accuracy(
      model, util::derive_seed(seed, 0x7CAu));
  kge::EvalOptions options;
  options.max_triples = max_triples;
  ranking = evaluator.link_prediction(model, dataset.test(), options, pool);
}

}  // namespace dynkge::core
