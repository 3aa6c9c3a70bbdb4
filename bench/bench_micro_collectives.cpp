// Micro-benchmarks (google-benchmark) for the communication substrate:
// in-process collective throughput and the analytic cost-model evaluation.
// These measure the *simulator's* own overhead, not modeled network time.
#include <benchmark/benchmark.h>

#include <vector>

#include "comm/communicator.hpp"
#include "harness/micro_main.hpp"

namespace {

using dynkge::comm::Cluster;
using dynkge::comm::Communicator;
using dynkge::comm::CostModel;
using dynkge::comm::ScalarOp;

void BM_AllReduceScalar(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  Cluster cluster(ranks);
  for (auto _ : state) {
    cluster.run([&](Communicator& comm) {
      double value = comm.rank();
      for (int i = 0; i < 100; ++i) {
        value = comm.allreduce_scalar(value, ScalarOp::kMax);
      }
      benchmark::DoNotOptimize(value);
    });
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_AllReduceScalar)->Arg(2)->Arg(4)->Arg(8);

void BM_AllGatherV(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const std::size_t bytes = static_cast<std::size_t>(state.range(1));
  Cluster cluster(ranks);
  for (auto _ : state) {
    cluster.run([&](Communicator& comm) {
      const std::vector<std::byte> local(bytes, std::byte{1});
      std::size_t read = 0;
      comm.allgatherv_slots(local, [&](Communicator::Slots slots) {
        for (const auto slot : slots) {
          for (const std::byte b : slot) read += static_cast<std::size_t>(b);
        }
      });
      benchmark::DoNotOptimize(read);
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          ranks * bytes);
}
BENCHMARK(BM_AllGatherV)
    ->Args({2, 4 << 10})
    ->Args({4, 4 << 10})
    ->Args({8, 4 << 10});

void BM_CostModelAllReduce(benchmark::State& state) {
  const CostModel model;
  double acc = 0.0;
  for (auto _ : state) {
    for (int p = 2; p <= 16; p *= 2) {
      acc += model.allreduce_time(p, 1 << 20);
    }
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_CostModelAllReduce);

}  // namespace

DYNKGE_MICRO_BENCH_MAIN("micro_collectives")
