// dynkge — command-line interface to the library.
//
//   dynkge generate --preset fb15k_mini --out <dir>        write a synthetic
//                                                          dataset (OpenKE)
//   dynkge stats    --data <dir>                           dataset report
//   dynkge train    --data <dir> | --preset <name>         train a model
//                   [--strategy allreduce|allgather|ps|rs|rs1bit|drs|
//                    drs1bit|full] [--nodes N] [--rank N] [--batch N]
//                   [--lr X] [--tolerance N] [--max-epochs N] [--seed N]
//                   [--model complex|distmult|transe]
//                   [--host-threads N]  host threads the simulated ranks
//                                       run on (0 = all cores; results are
//                                       bit-identical for every value)
//                   [--probe-interval N]  dynamic-mode probe period k
//                   [--metrics-out f]   metrics snapshot (.prom ->
//                                       Prometheus text, else JSON)
//                   [--trace-out f.json]  Chrome trace-event timeline
//                                       (load in Perfetto/chrome://tracing)
//                   [--events-out f.jsonl]  per-epoch per-rank strategy
//                                       event stream (probe decisions,
//                                       keep rate, bytes on wire, ...)
//                   [--checkpoint-dir d]  write atomic training snapshots
//                                       into d (full state: model, Adam
//                                       moments, scheduler, DRS, RNG
//                                       streams, residuals)
//                   [--checkpoint-every N]  snapshot period in epochs (1)
//                   [--checkpoint-keep N]  snapshots retained: the primary
//                                       plus N-1 epoch-stamped history
//                                       copies (default 1); never deletes
//                                       the last known-good snapshot
//                   [--checkpoint-on-error fail|skip|retry]  what a failed
//                                       snapshot write does: kill the run
//                                       (default), log and keep training,
//                                       or re-attempt then degrade to skip
//                   [--resume]          continue from d's newest valid
//                                       snapshot (a corrupt newest falls
//                                       back to the next older one); the
//                                       final embeddings are byte-identical
//                                       to an uninterrupted run
//                   [--fault-spec s]    inject collective faults, e.g.
//                                       "crash@1@40,transient@0@12@2,
//                                       straggler@2@30@0.5,corrupt@1@e2,
//                                       hang@0@e3"; INDEX may be an epoch
//                                       address like e2 (see comm/fault.hpp)
//                   [--wire-checksums]  FNV-1a payload checksums on every
//                                       collective even with no fault spec
//                   [--collective-deadline X]  watchdog: a hung collective
//                                       or a straggler stalled past X sim
//                                       seconds becomes a deterministic
//                                       rank failure (0 = off; required
//                                       for hang@ faults)
//                   [--fault-retry-limit N]  transient-retry attempts per
//                                       collective (default 4)
//                   [--fault-backoff-base X]  modeled seconds before the
//                                       first transient retry (default
//                                       1e-3, doubling per retry)
//                   [--elastic]         survive permanent rank crashes:
//                                       shrink the world to the survivors,
//                                       restore the last in-run snapshot,
//                                       replay the poisoned epoch (exit 0
//                                       on recovery, 3 when the budget
//                                       below is exhausted)
//                   [--max-rank-failures N]  cumulative rank-crash budget
//                                       for --elastic (default 0)
//                   [--kill-at-epoch N] test hook: SIGKILL self right after
//                                       epoch N's snapshot is durable
//                   [--kill-mid-write B]  with --kill-at-epoch: die after B
//                                       bytes of the snapshot temp file
//                                       instead (atomicity harness)
//                   [--kill-in-recovery N]  test hook: SIGKILL self in the
//                                       middle of the N-th elastic rebuild
//                   [--disk-fault-at-epoch N]  test hook: snapshot writes
//                                       fail with ENOSPC starting at epoch
//                                       N (exercises --checkpoint-on-error)
//                   [--disk-fault-attempts K]  how many writes fail (1)
//                   [--select dense|rs|topk]  override the strategy's
//                                       gradient selection (topk = entity-
//                                       wise Top-K by accumulated row norm
//                                       with error feedback)
//                   [--topk-k N]        rows each rank keeps per step under
//                                       Top-K selection
//                   [--drs-topk-arm]    let the DRS probe schedule compare
//                                       a Top-K arm against the strategy's
//                                       base selection (needs a drs*
//                                       strategy and --topk-k)
//                   [--trainer hogwild|federated]  alternative trainers;
//                                       federated adds:
//                   [--clients M]       simulated clients, each holding a
//                                       private triple shard (default 2)
//                   [--local-epochs E]  local SGD passes per round (1)
//                   [--rounds R]        aggregation rounds (default 10)
//                                       (faults/elastic flags above apply;
//                                       exit 3 when a client crash exceeds
//                                       the --max-rank-failures budget)
//                   [--save-model file] [--report file.json]
//   dynkge analyze  --trace t.json --events e.jsonl        critical-path +
//                   [--json] [--out file]                  strategy-decision
//                                                          report from a
//                                                          train run's
//                                                          telemetry: per
//                                                          epoch the rank
//                                                          that bounded it,
//                                                          its blocking
//                                                          collective, comm
//                                                          fraction and
//                                                          straggler skew,
//                                                          plus an audit of
//                                                          every DRS probe
//                                                          decision against
//                                                          the recorded
//                                                          costs (exit 4
//                                                          when a decision
//                                                          contradicts the
//                                                          measurements)
//   dynkge eval     --data <dir> --model-file <file>       evaluate a saved
//                                                          model
//   dynkge predict  --data <dir> --model-file <file>       top-k entities
//                   --head H | --tail T  --relation R      for a query,
//                   [--topk K] [--threads N] [--filter]    served by
//                                                          serve/TopKScorer
//   dynkge serve    --data <dir> | --preset <name>         serve a model
//                   [--model-file f]                       while streaming
//                   --stream-updates <file>                KG updates into
//                   [--queries N] [--clients N]            it: concurrent
//                   [--threads N] [--cache N]              Zipf-skewed reads
//                   [--topk K] [--seed N]                  against versioned
//                   [--delta-batch N] [--refresh-steps N]  snapshots, deltas
//                   [--refresh-lr X] [--max-inflight N]    batched through
//                   [--max-version-lag N]                  DeltaIngestor and
//                   [--metrics-out f] [--trace-out f]      hot-swapped with
//                   [--events-out f.jsonl]                 zero downtime
//   dynkge serve-bench --data <dir> | --preset <name>      replay a skewed
//                   [--model-file f] [--queries N]         synthetic query
//                   [--distinct N] [--topk K]              stream through
//                   [--threads N] [--cache N] [--batch N]  InferenceService;
//                   [--seed N] [--metrics-out f]           report p50/p95/p99
//                   [--mixed-updates N] [--delta-batch N]  latency, QPS, and
//                   [--refresh-steps N]                    speedup over the
//                   [--bench-json f]                       single-query scan;
//                                                          --mixed-updates
//                                                          adds a churn phase
//                                                          (reads racing delta
//                                                          publishes) and
//                                                          --bench-json emits
//                                                          machine-readable
//                                                          results for
//                                                          tools/check_bench.py
#include <algorithm>
#include <atomic>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "serve/service.hpp"
#include "stream/delta.hpp"
#include "stream/delta_ingestor.hpp"

#include "comm/fault.hpp"
#include "core/distributed_eval.hpp"
#include "obs/analysis.hpp"
#include "obs/bench_reporter.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "core/federated.hpp"
#include "core/hogwild_trainer.hpp"
#include "core/report_json.hpp"
#include "core/strategy_config.hpp"
#include "core/trainer.hpp"
#include "kge/model_factory.hpp"
#include "kge/serialize.hpp"
#include "kge/statistics.hpp"
#include "kge/synthetic.hpp"
#include "kge/tsv_loader.hpp"
#include "util/argparse.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

using namespace dynkge;

namespace {

int usage() {
  std::cerr << "usage: dynkge <generate|stats|train|analyze|eval|predict|"
               "serve|serve-bench> [--flags]\n"
               "(see the header of tools/dynkge_cli.cpp)\n";
  return 2;
}

kge::SyntheticSpec preset_by_name(const std::string& name) {
  if (name == "fb15k_mini") return kge::SyntheticSpec::fb15k_mini();
  if (name == "fb15k_full") return kge::SyntheticSpec::fb15k_full();
  if (name == "fb250k_mini") return kge::SyntheticSpec::fb250k_mini();
  if (name == "fb250k_full") return kge::SyntheticSpec::fb250k_full();
  throw std::invalid_argument("unknown preset: " + name +
                              " (expected fb15k_mini|fb15k_full|"
                              "fb250k_mini|fb250k_full)");
}

kge::Dataset dataset_from_flags(const util::ArgParser& args) {
  const std::string data_dir = args.get_string("data", "");
  if (!data_dir.empty()) return kge::load_dataset(data_dir);
  return kge::generate_synthetic(
      preset_by_name(args.get_string("preset", "fb15k_mini")));
}

core::StrategyConfig strategy_by_name(const std::string& name,
                                      int negatives, int ss_sampled) {
  if (name == "allreduce") {
    return core::StrategyConfig::baseline_allreduce(negatives);
  }
  if (name == "allgather") {
    return core::StrategyConfig::baseline_allgather(negatives);
  }
  if (name == "ps" || name == "param-server") {
    return core::StrategyConfig::baseline_parameter_server(negatives);
  }
  if (name == "rs") return core::StrategyConfig::rs(negatives);
  if (name == "drs") return core::StrategyConfig::drs(negatives);
  if (name == "rs1bit") return core::StrategyConfig::rs_1bit(negatives);
  if (name == "drs1bit") return core::StrategyConfig::drs_1bit(negatives);
  if (name == "full") {
    return core::StrategyConfig::drs_1bit_rp_ss(ss_sampled, 1);
  }
  throw std::invalid_argument("unknown strategy: " + name);
}

/// --select / --topk-k / --drs-topk-arm override whatever selection the
/// strategy preset chose (the trainer validates the combination by flag
/// name).
void apply_selection_flags(const util::ArgParser& args,
                           core::StrategyConfig& strategy) {
  const std::string select = args.get_string("select", "");
  if (!select.empty()) {
    if (select == "dense") {
      strategy.selection = core::SelectionMode::kNone;
    } else if (select == "rs") {
      strategy.selection = core::SelectionMode::kBernoulli;
      strategy.selection_residual = true;
    } else if (select == "topk") {
      strategy.selection = core::SelectionMode::kTopK;
      strategy.selection_residual = true;
    } else {
      throw std::invalid_argument("unknown --select: " + select +
                                  " (expected dense|rs|topk)");
    }
  }
  strategy.topk_k =
      static_cast<int>(args.get_int("topk-k", strategy.topk_k));
  if (args.get_bool("drs-topk-arm", false)) strategy.dynamic_topk_arm = true;
}

int cmd_generate(const util::ArgParser& args) {
  const std::string out = args.get_string("out", "");
  if (out.empty()) {
    std::cerr << "generate: --out <dir> is required\n";
    return 2;
  }
  kge::SyntheticSpec spec =
      preset_by_name(args.get_string("preset", "fb15k_mini"));
  spec.seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<std::int64_t>(spec.seed)));
  const kge::Dataset dataset = kge::generate_synthetic(spec);
  kge::save_openke(dataset, out);
  std::cout << dataset.summary("generated") << "\nwritten to " << out
            << " (OpenKE layout)\n";
  return 0;
}

int cmd_stats(const util::ArgParser& args) {
  const kge::Dataset dataset = dataset_from_flags(args);
  std::cout << dataset.summary("dataset") << "\n"
            << kge::compute_statistics(dataset).summary() << "\n";
  return 0;
}

int cmd_train_hogwild(const util::ArgParser& args,
                      const kge::Dataset& dataset) {
  core::HogwildConfig config;
  config.model_name = args.get_string("model", "complex");
  config.embedding_rank =
      static_cast<std::int32_t>(args.get_int("rank", 32));
  config.num_threads = static_cast<int>(args.get_int("nodes", 4));
  config.negatives = static_cast<int>(args.get_int("negatives", 4));
  config.lr.base_lr = args.get_double("lr", 0.05);
  config.lr.max_scale = 1;
  config.lr.tolerance = static_cast<int>(args.get_int("tolerance", 15));
  config.max_epochs = static_cast<int>(args.get_int("max-epochs", 200));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1234));

  std::cout << "training hogwild (" << config.model_name << ", rank "
            << config.embedding_rank << ") on " << config.num_threads
            << " shared-memory threads...\n";
  const auto report = core::HogwildTrainer(dataset, config).train();
  std::cout << "epochs: " << report.epochs
            << "  cpu: " << report.total_cpu_seconds << " s"
            << "  TCA: " << report.tca << " %"
            << "  MRR: " << report.ranking.mrr << "\n";
  const std::string model_path = args.get_string("save-model", "");
  if (!model_path.empty()) {
    kge::save_model(*report.model, model_path);
    std::cout << "model written to " << model_path << "\n";
  }
  return 0;
}

int cmd_train_federated(const util::ArgParser& args,
                        const kge::Dataset& dataset) {
  core::FederatedConfig config;
  config.model_name = args.get_string("model", "complex");
  config.embedding_rank =
      static_cast<std::int32_t>(args.get_int("rank", 32));
  config.negatives = static_cast<int>(args.get_int("negatives", 4));
  config.lr.base_lr = args.get_double("lr", 0.05);
  config.lr.tolerance = static_cast<int>(args.get_int("tolerance", 15));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1234));
  config.host_threads = static_cast<int>(args.get_int("host-threads", 0));
  config.policy.num_clients = static_cast<int>(args.get_int("clients", 2));
  config.policy.local_epochs =
      static_cast<int>(args.get_int("local-epochs", 1));
  config.policy.rounds = static_cast<int>(args.get_int("rounds", 10));
  config.policy.elastic.enabled = args.get_bool("elastic", false);
  config.policy.elastic.max_rank_failures =
      static_cast<int>(args.get_int("max-rank-failures", 0));
  // Default exchange: random selection with error feedback; --select /
  // --topk-k switch it (the transport is parameter-server regardless).
  config.strategy = core::StrategyConfig::rs(config.negatives);
  apply_selection_flags(args, config.strategy);

  std::unique_ptr<comm::FaultInjector> faults;
  const std::string fault_spec = args.get_string("fault-spec", "");
  const double deadline = args.get_double("collective-deadline", 0.0);
  if (!fault_spec.empty() || args.get_bool("wire-checksums", false) ||
      deadline > 0.0) {
    comm::RetryPolicy retry;
    retry.max_attempts =
        static_cast<int>(args.get_int("fault-retry-limit", 4));
    retry.backoff_seconds = args.get_double("fault-backoff-base", 1e-3);
    faults = std::make_unique<comm::FaultInjector>(
        fault_spec.empty() ? std::vector<comm::FaultEvent>{}
                           : comm::FaultInjector::parse_spec(fault_spec),
        retry, deadline);
    config.fault_injector = faults.get();
  }

  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<obs::TraceWriter> trace;
  std::unique_ptr<obs::EventLog> events;
  const std::string metrics_path = args.get_string("metrics-out", "");
  const std::string trace_path = args.get_string("trace-out", "");
  const std::string events_path = args.get_string("events-out", "");
  if (!metrics_path.empty()) {
    metrics = std::make_unique<obs::MetricsRegistry>();
    config.telemetry.metrics = metrics.get();
  }
  if (!trace_path.empty()) {
    trace = std::make_unique<obs::TraceWriter>();
    config.telemetry.trace = trace.get();
  }
  if (!events_path.empty()) {
    events = std::make_unique<obs::EventLog>(events_path);
    config.telemetry.events = events.get();
  }

  std::cout << "training federated " << config.strategy.label() << " ("
            << config.model_name << ", rank " << config.embedding_rank
            << ") on " << config.policy.num_clients << " clients, "
            << config.policy.local_epochs << " local epochs x "
            << config.policy.rounds << " rounds...\n";
  core::FederatedReport report;
  try {
    report = core::FederatedTrainer(dataset, config).train();
  } catch (const comm::RankFailedError& error) {
    // Same contract as the distributed trainer: a client crash beyond the
    // elastic budget is exit 3, distinct from bad flags.
    std::cerr << "dynkge train: " << error.what() << "\n";
    return 3;
  }
  if (report.recoveries > 0) {
    std::cout << "elastic: " << report.recoveries << " recoveries from "
              << report.client_failures << " client failures, finished on "
              << report.active_clients << " of " << report.num_clients
              << " clients\n";
  }
  std::cout << "rounds: " << report.rounds
            << "  TT(sim): " << report.total_sim_seconds << " s"
            << "  TCA: " << report.tca << " %"
            << "  MRR: " << report.ranking.mrr << "\n"
            << "replicas consistent: "
            << (report.replicas_consistent ? "yes" : "NO") << "\n";

  const std::string model_path = args.get_string("save-model", "");
  if (!model_path.empty()) {
    kge::save_model(*report.model, model_path);
    std::cout << "model written to " << model_path << "\n";
  }
  if (metrics != nullptr) {
    obs::write_metrics(*metrics, metrics_path);
    std::cout << "metrics written to " << metrics_path << "\n";
  }
  if (trace != nullptr) {
    trace->write(trace_path);
    std::cout << "trace written to " << trace_path << "\n";
  }
  if (events != nullptr) {
    events->flush();
    std::cout << "events written to " << events_path << " ("
              << events->lines_written() << " lines)\n";
  }
  return 0;
}

/// `dynkge train --help`: the fault-tolerance / robustness flag table
/// (the full flag reference lives in the header comment of this file).
int cmd_train_help() {
  std::cout <<
      "dynkge train — train a KGE model on a simulated cluster\n"
      "\n"
      "Core:\n"
      "  --data DIR | --preset NAME   dataset (OpenKE layout | synthetic)\n"
      "  --strategy S                 allreduce|allgather|ps|rs|rs1bit|drs|\n"
      "                               drs1bit|full\n"
      "  --nodes N --rank N --batch N --lr X --tolerance N --max-epochs N\n"
      "  --seed N --model complex|distmult|transe --host-threads N\n"
      "  --select dense|rs|topk --topk-k N --drs-topk-arm\n"
      "  --trainer distributed|hogwild|federated\n"
      "\n"
      "Checkpointing:\n"
      "  --checkpoint-dir DIR         atomic full-state snapshots into DIR\n"
      "  --checkpoint-every N         snapshot period in epochs (default 1)\n"
      "  --checkpoint-keep N          snapshots retained: the primary plus\n"
      "                               N-1 epoch-stamped history copies\n"
      "                               (default 1); retention never deletes\n"
      "                               the last known-good snapshot\n"
      "  --checkpoint-on-error P      failed-write policy: fail (default),\n"
      "                               skip (log + keep training), retry\n"
      "                               (re-attempt, then degrade to skip)\n"
      "  --resume                     continue from DIR's newest valid\n"
      "                               snapshot; a corrupt newest snapshot\n"
      "                               falls back to the next older one\n"
      "\n"
      "Fault injection & integrity:\n"
      "  --fault-spec S               e.g. \"crash@1@40,transient@0@12@2,\n"
      "                               straggler@2@30@0.5,corrupt@1@e2,\n"
      "                               hang@0@e3\" (see comm/fault.hpp)\n"
      "  --wire-checksums             FNV-1a payload checksums on every\n"
      "                               collective, even with no --fault-spec\n"
      "  --collective-deadline X      watchdog: a hung collective or a\n"
      "                               straggler stalled past X simulated\n"
      "                               seconds becomes a deterministic rank\n"
      "                               failure (0 = off; required by hang@)\n"
      "  --fault-retry-limit N        retry attempts per collective (4)\n"
      "  --fault-backoff-base X       modeled seconds before first retry\n"
      "  --elastic                    shrink-world recovery from permanent\n"
      "                               rank failures\n"
      "  --max-rank-failures N        cumulative crash budget for --elastic\n"
      "\n"
      "Test hooks (harnesses):\n"
      "  --kill-at-epoch N --kill-mid-write B --kill-in-recovery N\n"
      "  --disk-fault-at-epoch N      fail snapshot writes with ENOSPC\n"
      "                               starting at epoch N\n"
      "  --disk-fault-attempts K      how many writes fail (default 1)\n"
      "\n"
      "Telemetry & output:\n"
      "  --metrics-out F --trace-out F.json --events-out F.jsonl\n"
      "  --save-model F --report F.json\n"
      "\n"
      "Exit codes: 0 success, 1 error, 2 usage, 3 rank failure beyond the\n"
      "recovery budget, 4 (analyze) decision contradicts measurements.\n";
  return 0;
}

int cmd_train(const util::ArgParser& args) {
  if (args.has_flag("help")) return cmd_train_help();
  const kge::Dataset dataset = dataset_from_flags(args);
  std::cout << dataset.summary("dataset") << "\n";

  const std::string trainer = args.get_string("trainer", "distributed");
  if (trainer == "hogwild") {
    return cmd_train_hogwild(args, dataset);
  }
  if (trainer == "federated") {
    return cmd_train_federated(args, dataset);
  }
  if (trainer != "distributed") {
    throw std::invalid_argument(
        "unknown --trainer: " + trainer +
        " (expected distributed|hogwild|federated)");
  }

  core::TrainConfig config;
  config.model_name = args.get_string("model", "complex");
  config.embedding_rank =
      static_cast<std::int32_t>(args.get_int("rank", 32));
  config.num_nodes = static_cast<int>(args.get_int("nodes", 4));
  config.batch_size =
      static_cast<std::size_t>(args.get_int("batch", 1000));
  config.lr.base_lr = args.get_double("lr", 0.01);
  config.lr.tolerance = static_cast<int>(args.get_int("tolerance", 15));
  config.max_epochs = static_cast<int>(args.get_int("max-epochs", 200));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1234));
  config.host_threads =
      static_cast<int>(args.get_int("host-threads", 0));  // 0 = all cores
  const int negatives = static_cast<int>(args.get_int("negatives", 4));
  config.strategy = strategy_by_name(
      args.get_string("strategy", "full"), negatives,
      static_cast<int>(args.get_int("ss-sampled", 8)));
  config.strategy.dynamic_probe_interval = static_cast<int>(args.get_int(
      "probe-interval", config.strategy.dynamic_probe_interval));
  apply_selection_flags(args, config.strategy);

  // Fault tolerance: periodic snapshots + resume, injected faults, and
  // elastic shrink-world recovery.
  config.checkpoint.dir = args.get_string("checkpoint-dir", "");
  config.checkpoint.every =
      static_cast<int>(args.get_int("checkpoint-every", 1));
  config.checkpoint.resume = args.get_bool("resume", false);
  config.checkpoint.on_error = args.get_string("checkpoint-on-error", "fail");
  config.checkpoint.keep =
      static_cast<int>(args.get_int("checkpoint-keep", 1));
  config.checkpoint.test_kill_at_epoch =
      static_cast<int>(args.get_int("kill-at-epoch", -1));
  config.checkpoint.test_kill_mid_write = args.get_int("kill-mid-write", -1);
  config.checkpoint.test_disk_fault_at_epoch =
      static_cast<int>(args.get_int("disk-fault-at-epoch", -1));
  config.checkpoint.test_disk_fault_attempts =
      static_cast<int>(args.get_int("disk-fault-attempts", 1));
  config.elastic.enabled = args.get_bool("elastic", false);
  config.elastic.max_rank_failures =
      static_cast<int>(args.get_int("max-rank-failures", 0));
  config.elastic.test_kill_in_recovery =
      static_cast<int>(args.get_int("kill-in-recovery", -1));
  config.fault_retry_limit =
      static_cast<int>(args.get_int("fault-retry-limit", 4));
  config.fault_backoff_base = args.get_double("fault-backoff-base", 1e-3);
  config.collective_deadline = args.get_double("collective-deadline", 0.0);
  std::unique_ptr<comm::FaultInjector> faults;
  const std::string fault_spec = args.get_string("fault-spec", "");
  const bool wire_checksums = args.get_bool("wire-checksums", false);
  // An injector is attached for any fault schedule, for --wire-checksums
  // (empty schedule; arms the per-collective integrity checksums), and
  // for a watchdog deadline with no scheduled faults.
  if ((!fault_spec.empty() || wire_checksums ||
       config.collective_deadline > 0.0) &&
      config.fault_retry_limit >= 1 && config.fault_backoff_base > 0.0 &&
      config.collective_deadline >= 0.0) {
    // Out-of-range knobs skip injector construction (whose own validation
    // cannot name a flag) and let the trainer report the offending flag by
    // name.
    comm::RetryPolicy retry;
    retry.max_attempts = config.fault_retry_limit;
    retry.backoff_seconds = config.fault_backoff_base;
    faults = std::make_unique<comm::FaultInjector>(
        fault_spec.empty() ? std::vector<comm::FaultEvent>{}
                           : comm::FaultInjector::parse_spec(fault_spec),
        retry, config.collective_deadline);
    config.fault_injector = faults.get();
  }

  // Telemetry sinks (src/obs/) — created only when a flag asks for them,
  // so the default train run pays nothing.
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<obs::TraceWriter> trace;
  std::unique_ptr<obs::EventLog> events;
  const std::string metrics_path = args.get_string("metrics-out", "");
  const std::string trace_path = args.get_string("trace-out", "");
  const std::string events_path = args.get_string("events-out", "");
  if (!metrics_path.empty()) {
    metrics = std::make_unique<obs::MetricsRegistry>();
    config.telemetry.metrics = metrics.get();
  }
  if (!trace_path.empty()) {
    trace = std::make_unique<obs::TraceWriter>();
    config.telemetry.trace = trace.get();
  }
  if (!events_path.empty()) {
    events = std::make_unique<obs::EventLog>(events_path);
    config.telemetry.events = events.get();
  }

  std::cout << "training " << config.strategy.label() << " ("
            << config.model_name << ", rank " << config.embedding_rank
            << ") on " << config.num_nodes << " simulated nodes...\n";
  core::TrainReport report;
  try {
    report = core::DistributedTrainer(dataset, config).train();
  } catch (const comm::RankFailedError& error) {
    // Distinct exit code so harnesses can tell "rank died" from bad flags.
    std::cerr << "dynkge train: " << error.what() << "\n";
    if (faults != nullptr) {
      const auto c = faults->counters();
      std::cerr << "faults: " << c.crashes << " crashes, " << c.transients
                << " transients recovered, " << c.exhausted
                << " retry budgets exhausted\n"
                << "integrity: " << c.corrupted_payloads
                << " corrupted payloads, " << c.corruptions_detected
                << " detected, " << c.retransmits << " retransmits, "
                << c.watchdog_trips << " watchdog trips\n";
    }
    return 3;
  }
  if (report.start_epoch > 0) {
    std::cout << "resumed from epoch " << report.start_epoch << "\n";
  }
  if (report.recoveries > 0) {
    std::cout << "elastic: " << report.recoveries << " recoveries from "
              << report.rank_failures << " rank failures ("
              << report.recovery_seconds << " s rebuilding), finished on "
              << report.num_nodes << " nodes\n";
  }
  if (!config.checkpoint.dir.empty()) {
    std::cout << "checkpoints: " << report.checkpoints_written
              << " written to " << config.checkpoint.dir << "\n";
  }
  if (faults != nullptr) {
    const auto c = faults->counters();
    std::cout << "faults injected: " << c.crashes << " crashes, "
              << c.transients << " transients (" << c.retries
              << " retries, " << c.backoff_seconds << " s backoff), "
              << c.stragglers << " stragglers\n"
              << "integrity: " << c.corrupted_payloads
              << " corrupted payloads, " << c.corruptions_detected
              << " detected, " << c.retransmits << " retransmits, "
              << c.watchdog_trips << " watchdog trips\n";
  }
  std::cout << "epochs: " << report.epochs
            << "  TT(sim): " << report.total_sim_seconds << " s"
            << "  TCA: " << report.tca << " %"
            << "  MRR: " << report.ranking.mrr << "\n"
            << "host: " << report.wall_seconds << " s wall on "
            << report.host_threads << " threads, "
            << report.compute_cpu_seconds << " s rank compute ("
            << report.host_speedup() << "x vs serialized)\n";

  const std::string model_path = args.get_string("save-model", "");
  if (!model_path.empty()) {
    kge::save_model(*report.model, model_path);
    std::cout << "model written to " << model_path << "\n";
  }
  const std::string report_path = args.get_string("report", "");
  if (!report_path.empty()) {
    core::write_report_json(report, report_path, metrics.get());
    std::cout << "report written to " << report_path << "\n";
  }
  if (metrics != nullptr) {
    obs::write_metrics(*metrics, metrics_path);
    std::cout << "metrics written to " << metrics_path << "\n";
  }
  if (trace != nullptr) {
    trace->write(trace_path);
    std::cout << "trace written to " << trace_path << " ("
              << trace->size() << " spans; load in Perfetto)\n";
  }
  if (events != nullptr) {
    events->flush();
    std::cout << "events written to " << events_path << " ("
              << events->lines_written() << " lines)\n";
  }
  return 0;
}

// Offline telemetry analysis: join a train run's trace spans with its
// event stream (obs/analysis.hpp) and print the critical-path table plus
// the DRS strategy audit. Exit codes: 0 clean, 2 bad flags, 4 when a
// recorded probe decision contradicts the recorded costs — so CI can gate
// on "the selector never decided against its own measurements".
int cmd_analyze(const util::ArgParser& args) {
  const std::string trace_path = args.get_string("trace", "");
  const std::string events_path = args.get_string("events", "");
  if (trace_path.empty() || events_path.empty()) {
    std::cerr << "analyze: --trace <file.json> and --events <file.jsonl> "
                 "are required\n";
    return 2;
  }
  const auto spans = obs::load_trace_spans(trace_path);
  const auto events = obs::load_events(events_path);
  const obs::AnalysisReport report = obs::analyze(spans, events);

  const std::string text =
      args.get_bool("json", false) ? report.to_json() + "\n"
                                   : report.to_table();
  const std::string out_path = args.get_string("out", "");
  if (out_path.empty()) {
    std::cout << text;
  } else {
    std::ofstream out(out_path, std::ios::trunc);
    if (!out) {
      std::cerr << "analyze: cannot write " << out_path << "\n";
      return 1;
    }
    out << text;
    std::cout << "analysis written to " << out_path << "\n";
  }
  if (report.contradicted_decisions > 0) {
    std::cerr << "analyze: " << report.contradicted_decisions
              << " probe decision(s) contradict the recorded costs\n";
    return 4;
  }
  return 0;
}

int cmd_eval(const util::ArgParser& args) {
  const std::string model_path = args.get_string("model-file", "");
  if (model_path.empty()) {
    std::cerr << "eval: --model-file <file> is required\n";
    return 2;
  }
  const kge::Dataset dataset = dataset_from_flags(args);
  const auto model = kge::load_model(model_path);
  const kge::Evaluator evaluator(dataset);
  kge::EvalOptions options;
  options.max_triples =
      static_cast<std::size_t>(args.get_int("max-triples", 0));
  // --nodes > 1 shards the ranking across a simulated cluster (identical
  // numbers, parallel wall time on multi-core hosts).
  const int nodes = static_cast<int>(args.get_int("nodes", 1));
  const auto metrics =
      nodes > 1 ? core::distributed_link_prediction(*model, dataset,
                                                    dataset.test(), nodes,
                                                    options)
                      .metrics
                : evaluator.link_prediction(*model, dataset.test(), options);
  std::cout << "model: " << model->name() << "\n"
            << "filtered MRR: " << metrics.mrr
            << "  mean rank: " << metrics.mean_rank
            << "  Hits@1/3/10: " << metrics.hits1 << " / " << metrics.hits3
            << " / " << metrics.hits10 << "\n"
            << "TCA: " << evaluator.triple_classification_accuracy(*model)
            << " %\n";
  return 0;
}

int cmd_predict(const util::ArgParser& args) {
  const std::string model_path = args.get_string("model-file", "");
  if (model_path.empty()) {
    std::cerr << "predict: --model-file <file> is required\n";
    return 2;
  }
  const kge::Dataset dataset = dataset_from_flags(args);

  serve::TopKQuery query;
  // --head H predicts tails of (H, r, ?); --tail T predicts heads of
  // (?, r, T). Exactly one side may be given; --head 0 is the default.
  const auto head = args.get_int("head", -1);
  const auto tail = args.get_int("tail", -1);
  if (head >= 0 && tail >= 0) {
    std::cerr << "predict: give either --head or --tail, not both\n";
    return 2;
  }
  query.direction =
      tail >= 0 ? serve::Direction::kHead : serve::Direction::kTail;
  query.entity = static_cast<kge::EntityId>(tail >= 0 ? tail
                                            : head >= 0 ? head
                                                        : 0);
  query.relation = static_cast<kge::RelationId>(args.get_int("relation", 0));
  query.filter_known = args.get_bool("filter", false);

  serve::ServiceConfig config;
  config.num_threads = static_cast<int>(args.get_int("threads", 4));
  serve::InferenceService live(kge::load_model(model_path), &dataset, config);
  if (query.entity >= dataset.num_entities() || query.relation < 0 ||
      query.relation >= dataset.num_relations()) {
    std::cerr << "predict: --head/--tail/--relation out of range\n";
    return 2;
  }
  query.k = std::min<std::int32_t>(
      static_cast<std::int32_t>(args.get_int("topk", 10)),
      dataset.num_entities());

  const auto result = live.topk(query);
  const bool tails = query.direction == serve::Direction::kTail;
  std::cout << "top-" << result->size() << (tails ? " tails for (e" : " heads for (?")
            << (tails ? std::to_string(query.entity) : "")
            << ", r" << query.relation
            << (tails ? ", ?):\n" : ", e" + std::to_string(query.entity) + "):\n");
  for (const auto& [entity, score] : *result) {
    const bool known = tails
                           ? dataset.contains(query.entity, query.relation, entity)
                           : dataset.contains(entity, query.relation, query.entity);
    std::cout << "  e" << entity << "  score " << score
              << (known ? "  [known fact]" : "") << "\n";
  }
  const auto snapshot = live.snapshot();
  std::cout << "served in " << obs::LatencyHistogram::format_seconds(
                                   snapshot.mean_latency_seconds)
            << " on " << live.num_threads() << " threads\n";
  return 0;
}

/// Model for the serving commands: a checkpoint when --model-file is
/// given, otherwise freshly initialized weights (they score garbage but
/// cost exactly the same to serve — fine for throughput work).
std::unique_ptr<kge::KgeModel> serving_model(const util::ArgParser& args,
                                             const kge::Dataset& dataset) {
  const std::string model_path = args.get_string("model-file", "");
  if (!model_path.empty()) return kge::load_model(model_path);
  auto model = kge::make_model(
      args.get_string("model", "complex"), dataset.num_entities(),
      dataset.num_relations(),
      static_cast<std::int32_t>(args.get_int("rank", 32)));
  util::Rng init_rng(static_cast<std::uint64_t>(args.get_int("seed", 42)));
  model->init(init_rng);
  return model;
}

/// Zipf(1.0)-skewed query stream over `distinct` identities — the
/// popularity profile the cache is designed for.
std::vector<serve::TopKQuery> make_query_stream(const kge::Dataset& dataset,
                                                std::size_t count,
                                                std::size_t distinct,
                                                std::int32_t topk,
                                                std::uint64_t seed) {
  util::Rng rng(seed ^ 0x5e7fe5e7fe5ULL);
  std::vector<serve::TopKQuery> identities(std::max<std::size_t>(1, distinct));
  for (auto& q : identities) {
    q.direction = rng.next_bernoulli(0.5) ? serve::Direction::kTail
                                          : serve::Direction::kHead;
    q.entity = static_cast<kge::EntityId>(
        rng.next_below(static_cast<std::uint64_t>(dataset.num_entities())));
    q.relation = static_cast<kge::RelationId>(
        rng.next_below(static_cast<std::uint64_t>(dataset.num_relations())));
    q.k = std::min<std::int32_t>(topk, dataset.num_entities());
  }
  const util::ZipfSampler skew(identities.size(), 1.0);
  std::vector<serve::TopKQuery> stream(count);
  for (auto& q : stream) q = identities[skew.sample(rng)];
  return stream;
}

/// Synthetic delta triples for churn benchmarks: uniform over the
/// dataset's universe, deterministic in `seed`.
kge::TripleList make_delta_stream(const kge::Dataset& dataset,
                                  std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed ^ 0xde17a5ULL);
  kge::TripleList deltas(count);
  for (auto& t : deltas) {
    t.head = static_cast<kge::EntityId>(
        rng.next_below(static_cast<std::uint64_t>(dataset.num_entities())));
    t.relation = static_cast<kge::RelationId>(
        rng.next_below(static_cast<std::uint64_t>(dataset.num_relations())));
    t.tail = static_cast<kge::EntityId>(
        rng.next_below(static_cast<std::uint64_t>(dataset.num_entities())));
  }
  return deltas;
}

stream::IngestConfig ingest_config_from_flags(const util::ArgParser& args,
                                              const kge::Dataset& dataset) {
  stream::IngestConfig config;
  config.batch_size = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.get_int("delta-batch", 64)));
  config.refresh.steps =
      static_cast<int>(args.get_int("refresh-steps", 2));
  config.refresh.learning_rate = args.get_double("refresh-lr", 0.05);
  config.refresh.negatives_sampled =
      static_cast<int>(args.get_int("refresh-negatives", 4));
  config.refresh.negatives_used = config.refresh.negatives_sampled;
  config.refresh.seed =
      static_cast<std::uint64_t>(args.get_int("seed", 42));
  config.dataset = &dataset;
  return config;
}

// Serve a model while streaming KG updates into it: concurrent client
// threads replay a Zipf-skewed read stream against versioned snapshots
// while a delta file is ingested, refreshed and hot-swapped in. The
// demo/operational counterpart of `serve-bench --mixed-updates`.
int cmd_serve(const util::ArgParser& args) {
  const std::string updates = args.get_string("stream-updates", "");
  if (updates.empty()) {
    std::cerr << "serve: --stream-updates <file> is required\n";
    return 2;
  }
  if (!updates.empty() &&
      updates.find_first_not_of("0123456789") == std::string::npos) {
    std::cerr << "serve: --stream-updates expects a delta file; listening "
                 "on a port is not supported in this build\n";
    return 2;
  }

  const kge::Dataset dataset = dataset_from_flags(args);
  const auto deltas = stream::load_delta_file(
      updates, dataset.num_entities(), dataset.num_relations());
  std::cout << "serve: " << deltas.triples.size() << " streamed deltas from "
            << updates;
  if (deltas.skipped > 0) {
    std::cout << " (" << deltas.skipped << " out-of-universe lines dropped)";
  }
  std::cout << "\n";

  serve::ServiceConfig config;
  config.num_threads = static_cast<int>(args.get_int("threads", 4));
  config.cache_capacity =
      static_cast<std::size_t>(args.get_int("cache", 1024));
  config.max_inflight =
      static_cast<std::size_t>(args.get_int("max-inflight", 0));
  config.defer_updates_above = config.max_inflight;
  config.cache_max_version_lag =
      static_cast<std::uint64_t>(args.get_int("max-version-lag", 8));

  // Telemetry sinks, created only when a flag asks for them.
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<obs::TraceWriter> trace;
  std::unique_ptr<obs::EventLog> events;
  obs::TelemetrySinks sinks;
  const std::string metrics_path = args.get_string("metrics-out", "");
  const std::string trace_path = args.get_string("trace-out", "");
  const std::string events_path = args.get_string("events-out", "");
  if (!metrics_path.empty()) {
    metrics = std::make_unique<obs::MetricsRegistry>();
    config.metrics = metrics.get();
    sinks.metrics = metrics.get();
  }
  if (!trace_path.empty()) {
    trace = std::make_unique<obs::TraceWriter>();
    config.trace = trace.get();
    sinks.trace = trace.get();
  }
  if (!events_path.empty()) {
    events = std::make_unique<obs::EventLog>(events_path);
    sinks.events = events.get();
  }

  serve::InferenceService service(serving_model(args, dataset), &dataset,
                                  config);
  service.store().set_telemetry(sinks);

  stream::IngestConfig ingest = ingest_config_from_flags(args, dataset);
  ingest.admission = &service.admission();
  ingest.telemetry = sinks;
  stream::DeltaIngestor ingestor(service.store(), ingest);

  const auto num_queries =
      static_cast<std::size_t>(args.get_int("queries", 2000));
  const auto stream = make_query_stream(
      dataset, num_queries,
      std::max<std::size_t>(
          1, static_cast<std::size_t>(args.get_int("distinct", 256))),
      static_cast<std::int32_t>(args.get_int("topk", 10)),
      static_cast<std::uint64_t>(args.get_int("seed", 42)));

  const auto clients = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.get_int("clients", 2)));
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> failed{0};

  const util::Stopwatch clock;
  std::vector<std::thread> readers;
  readers.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    readers.emplace_back([&, c] {
      for (std::size_t i = c; i < stream.size(); i += clients) {
        const auto result = service.topk(stream[i]);
        if (result != nullptr) {
          answered.fetch_add(1, std::memory_order_relaxed);
        } else if (config.max_inflight != 0) {
          shed.fetch_add(1, std::memory_order_relaxed);
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Ingest on this thread, concurrently with the readers: submit() flushes
  // (refresh + publish) inline every batch_size deltas.
  for (const kge::Triple& t : deltas.triples) ingestor.submit(t);
  ingestor.flush();
  for (auto& reader : readers) reader.join();
  const double wall = clock.seconds();

  const auto snapshot = service.snapshot();
  const auto ingest_stats = ingestor.stats();
  std::cout << "served " << answered.load() << "/" << stream.size()
            << " queries on " << clients << " clients in "
            << obs::LatencyHistogram::format_seconds(wall) << " ("
            << static_cast<std::uint64_t>(
                   static_cast<double>(answered.load()) / wall)
            << " qps), " << shed.load() << " shed, " << failed.load()
            << " failed\n"
            << "latency: " << snapshot.summary() << "\n"
            << "stream: " << ingest_stats.batches << " refreshes -> version "
            << service.current_version() << ", "
            << ingest_stats.touched_rows << " rows touched, last drift "
            << ingest_stats.last_drift << ", cache invalidations "
            << snapshot.cache.invalidations << " ("
            << snapshot.cache.invalidated_entries << " entries)\n";

  if (metrics != nullptr) {
    obs::write_metrics(*metrics, metrics_path);
    std::cout << "metrics written to " << metrics_path << "\n";
  }
  if (trace != nullptr) {
    trace->write(trace_path);
    std::cout << "trace written to " << trace_path << " ("
              << trace->size() << " spans)\n";
  }
  if (events != nullptr) {
    events->flush();
    std::cout << "events written to " << events_path << " ("
              << events->lines_written() << " lines)\n";
  }
  return failed.load() == 0 ? 0 : 1;
}

// Replay a skewed synthetic query stream through InferenceService and
// compare against the pre-serve inference path: one query at a time, one
// thread, full score_all_* scan + partial_sort, no cache.
int cmd_serve_bench(const util::ArgParser& args) {
  const kge::Dataset dataset = dataset_from_flags(args);

  std::unique_ptr<kge::KgeModel> model = serving_model(args, dataset);
  const kge::KgeModel& m = *model;

  const auto num_queries =
      static_cast<std::size_t>(args.get_int("queries", 2000));
  const auto num_distinct = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.get_int("distinct", 256)));
  const auto topk = static_cast<std::int32_t>(args.get_int("topk", 10));
  const auto batch = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.get_int("batch", 32)));

  serve::ServiceConfig config;
  config.num_threads = static_cast<int>(args.get_int("threads", 4));
  config.cache_capacity =
      static_cast<std::size_t>(args.get_int("cache", 1024));
  const std::string metrics_path = args.get_string("metrics-out", "");
  std::unique_ptr<obs::MetricsRegistry> metrics;
  if (!metrics_path.empty()) {
    metrics = std::make_unique<obs::MetricsRegistry>();
    config.metrics = metrics.get();
  }

  const auto stream = make_query_stream(
      dataset, num_queries, num_distinct, topk,
      static_cast<std::uint64_t>(args.get_int("seed", 42)));

  std::cout << "serve-bench: " << num_queries << " queries ("
            << num_distinct << " distinct, Zipf-skewed), top-" << topk
            << ", model " << m.name() << ", " << dataset.num_entities()
            << " entities\n";

  // Baseline: the old `dynkge predict` path over a slice of the stream.
  const auto baseline_n =
      std::min<std::size_t>(stream.size(),
                            static_cast<std::size_t>(
                                args.get_int("baseline-queries", 64)));
  std::vector<double> scores(static_cast<std::size_t>(m.num_entities()));
  std::vector<kge::EntityId> order(scores.size());
  util::Stopwatch baseline_clock;
  for (std::size_t i = 0; i < baseline_n; ++i) {
    const auto& q = stream[i];
    if (q.direction == serve::Direction::kTail) {
      m.score_all_tails(q.entity, q.relation, scores);
    } else {
      m.score_all_heads(q.relation, q.entity, scores);
    }
    for (std::size_t e = 0; e < order.size(); ++e) {
      order[e] = static_cast<kge::EntityId>(e);
    }
    std::partial_sort(order.begin(), order.begin() + q.k, order.end(),
                      [&](kge::EntityId a, kge::EntityId b) {
                        return scores[a] > scores[b];
                      });
  }
  const double baseline_seconds = baseline_clock.seconds();
  const double baseline_qps =
      static_cast<double>(baseline_n) / baseline_seconds;
  std::cout << "baseline (single-thread full scan, no cache): "
            << baseline_n << " queries in "
            << obs::LatencyHistogram::format_seconds(baseline_seconds)
            << "  ->  " << static_cast<std::uint64_t>(baseline_qps)
            << " qps\n";

  // Serve the same stream: warmup pass fills the cache, measured pass is
  // the steady state a long-running service converges to.
  serve::InferenceService service(std::move(model), &dataset, config);
  for (std::size_t begin = 0; begin < stream.size(); begin += batch) {
    const auto end = std::min(stream.size(), begin + batch);
    service.topk_batch(std::span(stream).subspan(begin, end - begin));
  }
  service.reset_metrics();

  util::Stopwatch serve_clock;
  for (std::size_t begin = 0; begin < stream.size(); begin += batch) {
    const auto end = std::min(stream.size(), begin + batch);
    service.topk_batch(std::span(stream).subspan(begin, end - begin));
  }
  const double serve_seconds = serve_clock.seconds();
  const double serve_qps =
      static_cast<double>(stream.size()) / serve_seconds;

  const auto steady = service.snapshot();
  std::cout << "service (" << service.num_threads() << " threads, cache "
            << config.cache_capacity << ", batch " << batch << "): "
            << stream.size() << " queries in "
            << obs::LatencyHistogram::format_seconds(serve_seconds)
            << "  ->  " << static_cast<std::uint64_t>(serve_qps) << " qps\n"
            << "latency: " << steady.summary() << "\n"
            << "speedup over single-query scan: "
            << (serve_qps / baseline_qps) << "x\n";

  // Churn phase (--mixed-updates N): replay the read stream again while N
  // synthetic deltas are refreshed and hot-swapped in from another thread.
  // The zero-downtime claim is checked directly: every read slot must come
  // back non-null (no request may fail because a publish was in flight).
  const auto mixed_updates =
      static_cast<std::size_t>(args.get_int("mixed-updates", 0));
  double churn_qps = 0.0;
  std::uint64_t churn_failed = 0;
  std::uint64_t churn_versions = 0;
  serve::ServiceSnapshot churn;
  if (mixed_updates > 0) {
    const auto deltas = make_delta_stream(
        dataset, mixed_updates,
        static_cast<std::uint64_t>(args.get_int("seed", 42)));
    stream::IngestConfig ingest = ingest_config_from_flags(args, dataset);
    ingest.admission = &service.admission();
    stream::DeltaIngestor ingestor(service.store(), ingest);

    service.reset_metrics();
    const std::uint64_t version_before = service.current_version();
    util::Stopwatch churn_clock;
    std::thread updater([&] {
      for (const kge::Triple& t : deltas) ingestor.submit(t);
      ingestor.flush();
    });
    for (std::size_t begin = 0; begin < stream.size(); begin += batch) {
      const auto end = std::min(stream.size(), begin + batch);
      const auto results =
          service.topk_batch(std::span(stream).subspan(begin, end - begin));
      for (const auto& result : results) churn_failed += result == nullptr;
    }
    updater.join();
    const double churn_seconds = churn_clock.seconds();
    churn_qps = static_cast<double>(stream.size()) / churn_seconds;
    churn = service.snapshot();
    churn_versions = service.current_version() - version_before;
    std::cout << "churn (" << mixed_updates << " deltas, batch "
              << ingest.batch_size << "): " << stream.size()
              << " queries in "
              << obs::LatencyHistogram::format_seconds(churn_seconds)
              << "  ->  " << static_cast<std::uint64_t>(churn_qps)
              << " qps, " << churn_versions << " versions published, "
              << churn_failed << " failed requests\n"
              << "latency under churn: " << churn.summary() << "\n";
  }

  // --bench-json: the block tools/check_bench.py gates (no file without
  // the flag).
  obs::BenchReporter reporter("serve", args.get_string("bench-json", ""));
  reporter.context("queries", static_cast<std::int64_t>(stream.size()));
  reporter.context("distinct", static_cast<std::int64_t>(num_distinct));
  reporter.context("batch", static_cast<std::int64_t>(batch));
  reporter.context("threads", service.num_threads());
  reporter.context("cache_capacity",
                   static_cast<std::int64_t>(config.cache_capacity));
  reporter.context("mixed_updates", static_cast<std::int64_t>(mixed_updates));
  reporter.set("baseline_scan_qps", baseline_qps);
  reporter.set("steady.qps", serve_qps);
  reporter.set("steady.p50_seconds", steady.p50_seconds);
  reporter.set("steady.p95_seconds", steady.p95_seconds);
  reporter.set("steady.p99_seconds", steady.p99_seconds);
  reporter.set("steady.cache_hit_rate", steady.cache.hit_rate());
  if (mixed_updates > 0) {
    reporter.set("churn.qps", churn_qps);
    reporter.set("churn.p99_seconds", churn.p99_seconds);
    reporter.count("churn.versions_published", churn_versions);
    reporter.count("churn.failed_requests", churn_failed);
    reporter.count("churn.shed", churn.shed);
    reporter.count("churn.cache_invalidations", churn.cache.invalidations);
    reporter.count("churn.cache_invalidated_entries",
                   churn.cache.invalidated_entries);
  }
  if (!reporter.write()) return 1;

  if (metrics != nullptr) {
    obs::write_metrics(*metrics, metrics_path);
    std::cout << "metrics written to " << metrics_path << "\n";
  }
  return churn_failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    const util::ArgParser args(argc - 1, argv + 1);
    if (command == "generate") return cmd_generate(args);
    if (command == "stats") return cmd_stats(args);
    if (command == "train") return cmd_train(args);
    if (command == "analyze") return cmd_analyze(args);
    if (command == "eval") return cmd_eval(args);
    if (command == "predict") return cmd_predict(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "serve-bench") return cmd_serve_bench(args);
  } catch (const std::exception& error) {
    std::cerr << "dynkge " << command << ": " << error.what() << "\n";
    return 1;
  }
  return usage();
}
