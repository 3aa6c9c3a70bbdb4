// Property-style sweeps over the codec space: every (mode, scale, width)
// combination must satisfy the same invariants for arbitrary payloads.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "core/quantize.hpp"
#include "util/span_math.hpp"

#include "row_ids.hpp"

namespace dynkge::core {
namespace {

using testing_util::row_ids;

using Param = std::tuple<QuantMode, OneBitScale, int>;

class CodecPropertyP : public ::testing::TestWithParam<Param> {};

INSTANTIATE_TEST_SUITE_P(
    Codecs, CodecPropertyP,
    ::testing::Combine(
        ::testing::Values(QuantMode::kNone, QuantMode::kOneBit,
                          QuantMode::kTwoBit),
        ::testing::Values(OneBitScale::kMax, OneBitScale::kMean,
                          OneBitScale::kNegMax, OneBitScale::kPosMax,
                          OneBitScale::kNegMean, OneBitScale::kPosMean),
        ::testing::Values(1, 7, 8, 9, 32, 200)));

std::vector<float> random_row(int width, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> row(width);
  for (auto& v : row) v = static_cast<float>(rng.next_normal(0.0, 2.0));
  return row;
}

TEST_P(CodecPropertyP, EncodedSizeIsExact) {
  const auto [mode, scale, width] = GetParam();
  const RowCodec codec(mode, scale, width);
  const auto row = random_row(width, 1);
  util::Rng rng(2);
  std::vector<std::byte> out;
  codec.encode(5, row, out, rng);
  EXPECT_EQ(out.size(), codec.bytes_per_row());
}

TEST_P(CodecPropertyP, IdRoundTrips) {
  const auto [mode, scale, width] = GetParam();
  const RowCodec codec(mode, scale, width);
  const auto row = random_row(width, 3);
  util::Rng rng(4);
  std::vector<std::byte> out;
  for (const std::int32_t id : {0, 1, 123456, (1 << 20)}) {
    out.clear();
    codec.encode(id, row, out, rng);
    std::vector<float> decoded(width);
    EXPECT_EQ(codec.decode(out, decoded), id);
  }
}

TEST_P(CodecPropertyP, DecodedMagnitudeBounded) {
  // No codec may inflate a value beyond the row's max absolute value.
  const auto [mode, scale, width] = GetParam();
  const RowCodec codec(mode, scale, width);
  const auto row = random_row(width, 5);
  const float bound = util::amax(row) * (1.0f + 1e-5f);
  util::Rng rng(6);
  std::vector<std::byte> out;
  codec.encode(0, row, out, rng);
  std::vector<float> decoded(width);
  codec.decode(out, decoded);
  for (const float v : decoded) {
    EXPECT_LE(std::fabs(v), bound);
  }
}

TEST_P(CodecPropertyP, SignsNeverFlip) {
  // A decoded non-zero component always carries the input's sign.
  const auto [mode, scale, width] = GetParam();
  const RowCodec codec(mode, scale, width);
  const auto row = random_row(width, 7);
  util::Rng rng(8);
  std::vector<std::byte> out;
  codec.encode(0, row, out, rng);
  std::vector<float> decoded(width);
  codec.decode(out, decoded);
  for (int i = 0; i < width; ++i) {
    if (decoded[i] != 0.0f && row[i] != 0.0f) {
      EXPECT_GT(decoded[i] * row[i], 0.0f) << "component " << i;
    }
  }
}

TEST_P(CodecPropertyP, GradEncodeDecodeAccumulateConsistent) {
  // decode_accumulate(encode_grad(g)) into an empty accumulator produces
  // the same rows as decoding row by row.
  const auto [mode, scale, width] = GetParam();
  if (mode == QuantMode::kTwoBit) {
    GTEST_SKIP() << "2-bit is stochastic; per-call streams differ";
  }
  const RowCodec codec(mode, scale, width);
  kge::SparseGrad grad(width);
  util::Rng data_rng(9);
  for (const std::int32_t id : {4, 17, 99}) {
    auto row = grad.accumulate(id);
    for (auto& v : row) {
      v = static_cast<float>(data_rng.next_double(-1, 1));
    }
  }
  util::Rng rng_a(10), rng_b(10);
  std::vector<std::byte> wire;
  codec.encode_grad(grad, wire, rng_a);
  kge::SparseGrad merged(width);
  codec.decode_accumulate(wire, merged);

  ASSERT_EQ(row_ids(merged), row_ids(grad));
  std::vector<float> reference(width);
  std::size_t offset = 0;
  for (const std::int32_t id : row_ids(grad)) {
    std::vector<std::byte> single;
    codec.encode(id, grad.row(id), single, rng_b);
    codec.decode(single, reference);
    const auto merged_row = merged.row(id);
    for (int i = 0; i < width; ++i) {
      EXPECT_FLOAT_EQ(merged_row[i], reference[i]);
    }
    offset += codec.bytes_per_row();
  }
}

TEST_P(CodecPropertyP, CompressionNeverExpandsBeyondRaw) {
  // For width 1 the per-row scale header dominates and quantization can
  // legitimately cost a byte more than raw; from width 2 up it never
  // expands, and the win grows linearly with width.
  const auto [mode, scale, width] = GetParam();
  if (width < 2) GTEST_SKIP() << "scale header dominates at width 1";
  const RowCodec codec(mode, scale, width);
  const RowCodec raw(QuantMode::kNone, scale, width);
  EXPECT_LE(codec.bytes_per_row(), raw.bytes_per_row());
}

TEST_P(CodecPropertyP, SameSignRowSurvivesOneSidedScales) {
  // Rows whose values all share one sign must still round-trip under the
  // one-sided scale variants (fallback path).
  const auto [mode, scale, width] = GetParam();
  const RowCodec codec(mode, scale, width);
  std::vector<float> row(width, -0.5f);
  util::Rng rng(11);
  std::vector<std::byte> out;
  codec.encode(0, row, out, rng);
  std::vector<float> decoded(width);
  codec.decode(out, decoded);
  for (const float v : decoded) {
    EXPECT_LE(v, 0.0f);  // sign preserved (or zero for 2-bit)
    EXPECT_TRUE(std::isfinite(v));
  }
}

}  // namespace
}  // namespace dynkge::core
