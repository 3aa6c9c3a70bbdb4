// The scaffold every trainer's run shares, so a fix to any of it lands
// once: the host pool, the shuffled training triples, the initial model,
// the simulated cluster with its fault injector, the replica check and the
// final metrics. The per-example steps live in core/train_step.hpp and the
// elastic supervision loop in comm/recovery.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "comm/communicator.hpp"
#include "kge/dataset.hpp"
#include "kge/evaluator.hpp"
#include "kge/model.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace dynkge::core {

/// The training split in the shuffled order every trainer partitions.
kge::TripleList shuffled_train_triples(const kge::Dataset& dataset,
                                       std::uint64_t seed);

/// A model initialized from derive_seed(seed, 0x1417) at a tenth of the
/// model's default scale (scores start near zero, which stabilizes
/// hard-negative mining): identical on every replica, client and thread of
/// one seed.
std::unique_ptr<kge::KgeModel> init_model(const std::string& name,
                                          const kge::Dataset& dataset,
                                          std::int32_t embedding_rank,
                                          std::uint64_t seed);

/// The pool rank programs and the final ranking run on: `threads` workers
/// (0 = hardware concurrency).
util::ThreadPool host_pool(int threads);

/// Run `program` on every rank of a fresh `world`-rank cluster, with the
/// fault injector (may be null) attached and mirroring into `metrics`.
void run_cluster(int world, const comm::CostModelParams& network,
                 comm::FaultInjector* faults, obs::MetricsRegistry* metrics,
                 util::ThreadPool& pool,
                 const std::function<void(comm::Communicator&)>& program);

/// Collective: true on every rank iff all ranks hold bit-identical entity
/// rows and, when `with_relations`, relation rows. FNV-1a digests compared
/// as cluster min == max (two allreduce_scalar calls).
bool replicas_consistent(comm::Communicator& comm,
                         const kge::KgeModel& model, bool with_relations);

/// Every trainer's final numbers, taken once per train() on the host:
/// triple-classification accuracy and filtered link-prediction metrics on
/// the test split, at most `max_triples` test triples, ranked on `pool`
/// when given (the same bytes as without).
void final_metrics(const kge::KgeModel& model, const kge::Dataset& dataset,
                   std::uint64_t seed, std::size_t max_triples,
                   util::ThreadPool* pool, double& tca,
                   kge::RankingMetrics& ranking);

}  // namespace dynkge::core
