// Micro-benchmarks (google-benchmark) for the gradient row codecs: encode
// and decode throughput per quantization mode and row width, and the
// exchange merge that decodes every rank's payload into one gradient.
#include <benchmark/benchmark.h>

#include "harness/micro_main.hpp"

#include <vector>

#include "core/quantize.hpp"

namespace {

using dynkge::core::OneBitScale;
using dynkge::core::QuantMode;
using dynkge::core::RowCodec;
using dynkge::util::Rng;

std::vector<float> make_row(std::int32_t width) {
  std::vector<float> row(width);
  Rng rng(7);
  for (auto& v : row) v = static_cast<float>(rng.next_double(-1.0, 1.0));
  return row;
}

void BM_Encode(benchmark::State& state) {
  const auto mode = static_cast<QuantMode>(state.range(0));
  const auto width = static_cast<std::int32_t>(state.range(1));
  const RowCodec codec(mode, OneBitScale::kMax, width);
  const auto row = make_row(width);
  Rng rng(1);
  std::vector<std::byte> out;
  for (auto _ : state) {
    out.clear();
    codec.encode(42, row, out, rng);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          width * sizeof(float));
}
BENCHMARK(BM_Encode)
    ->Args({static_cast<int>(QuantMode::kNone), 64})
    ->Args({static_cast<int>(QuantMode::kOneBit), 64})
    ->Args({static_cast<int>(QuantMode::kTwoBit), 64})
    ->Args({static_cast<int>(QuantMode::kNone), 400})
    ->Args({static_cast<int>(QuantMode::kOneBit), 400})
    ->Args({static_cast<int>(QuantMode::kTwoBit), 400});

void BM_Decode(benchmark::State& state) {
  const auto mode = static_cast<QuantMode>(state.range(0));
  const auto width = static_cast<std::int32_t>(state.range(1));
  const RowCodec codec(mode, OneBitScale::kMax, width);
  const auto row = make_row(width);
  Rng rng(1);
  std::vector<std::byte> wire;
  codec.encode(42, row, wire, rng);
  std::vector<float> decoded(width);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.decode(wire, decoded));
    benchmark::DoNotOptimize(decoded.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          width * sizeof(float));
}
BENCHMARK(BM_Decode)
    ->Args({static_cast<int>(QuantMode::kNone), 64})
    ->Args({static_cast<int>(QuantMode::kOneBit), 64})
    ->Args({static_cast<int>(QuantMode::kTwoBit), 64})
    ->Args({static_cast<int>(QuantMode::kOneBit), 400});

void BM_EncodeGrad(benchmark::State& state) {
  const auto rows = static_cast<std::int32_t>(state.range(0));
  constexpr std::int32_t kWidth = 64;
  const RowCodec codec(QuantMode::kOneBit, OneBitScale::kMax, kWidth);
  dynkge::kge::SparseGrad grad(kWidth);
  Rng rng(3);
  for (std::int32_t r = 0; r < rows; ++r) {
    auto row = grad.accumulate(r * 7);
    for (auto& v : row) v = static_cast<float>(rng.next_double(-1, 1));
  }
  std::vector<std::byte> out;
  Rng enc_rng(1);
  for (auto _ : state) {
    codec.encode_grad(grad, out, enc_rng);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_EncodeGrad)->Arg(100)->Arg(1000);

void BM_DecodeAccumulate(benchmark::State& state) {
  // train_combined's merge: 4 ranks' payloads of 1 000 rows each, width
  // 64, ids drawn from fb15k_mini's 2 000 entities so the ranks' rows
  // overlap. Items are rows decoded.
  const auto mode = static_cast<QuantMode>(state.range(0));
  constexpr std::int32_t kWidth = 64;
  constexpr std::int32_t kRanks = 4;
  constexpr std::size_t kRows = 1000;
  constexpr std::uint64_t kEntities = 2000;
  const RowCodec codec(mode, OneBitScale::kMax, kWidth);
  std::vector<std::vector<std::byte>> payloads(kRanks);
  Rng rng(5);
  for (std::vector<std::byte>& payload : payloads) {
    dynkge::kge::SparseGrad grad(kWidth);
    while (grad.num_rows() < kRows) {
      auto row = grad.accumulate(
          static_cast<std::int32_t>(rng.next_below(kEntities)));
      for (auto& v : row) v = static_cast<float>(rng.next_double(-1, 1));
    }
    codec.encode_grad(grad, payload, rng);
  }
  dynkge::kge::SparseGrad merged(kWidth);
  for (auto _ : state) {
    merged.clear();
    for (const std::vector<std::byte>& payload : payloads) {
      codec.decode_accumulate(payload, merged);
    }
    benchmark::DoNotOptimize(merged.num_rows());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kRanks *
                          static_cast<std::int64_t>(kRows));
}
BENCHMARK(BM_DecodeAccumulate)
    ->Arg(static_cast<int>(QuantMode::kNone))
    ->Arg(static_cast<int>(QuantMode::kOneBit))
    ->Arg(static_cast<int>(QuantMode::kTwoBit));

}  // namespace

DYNKGE_MICRO_BENCH_MAIN("micro_quantize")
