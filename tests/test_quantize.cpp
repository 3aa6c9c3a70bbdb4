#include "core/quantize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "golden_digest.hpp"
#include "util/span_math.hpp"

namespace dynkge::core {
namespace {

std::vector<float> test_row() {
  return {0.5f, -1.5f, 2.0f, -0.25f, 0.0f, 3.5f, -2.75f, 1.0f};
}

TEST(RowCodec, SizesMatchSpec) {
  EXPECT_EQ(RowCodec(QuantMode::kNone, OneBitScale::kMax, 8).bytes_per_row(),
            4u + 8u * 4u);
  EXPECT_EQ(RowCodec(QuantMode::kOneBit, OneBitScale::kMax, 8).bytes_per_row(),
            4u + 4u + 1u);
  EXPECT_EQ(RowCodec(QuantMode::kTwoBit, OneBitScale::kMax, 8).bytes_per_row(),
            4u + 4u + 2u);
  // Non-multiple widths round bits up to whole bytes.
  EXPECT_EQ(
      RowCodec(QuantMode::kOneBit, OneBitScale::kMax, 9).bytes_per_row(),
      4u + 4u + 2u);
  EXPECT_EQ(
      RowCodec(QuantMode::kTwoBit, OneBitScale::kMax, 5).bytes_per_row(),
      4u + 4u + 2u);
}

TEST(RowCodec, OneBitShrinks32x) {
  // The headline claim: 1 bit per value instead of 32.
  const RowCodec raw(QuantMode::kNone, OneBitScale::kMax, 256);
  const RowCodec onebit(QuantMode::kOneBit, OneBitScale::kMax, 256);
  const double payload_raw = 256.0 * 4.0;
  const double payload_1bit = 256.0 / 8.0;
  EXPECT_DOUBLE_EQ(payload_raw / payload_1bit, 32.0);
  EXPECT_LT(onebit.bytes_per_row(), raw.bytes_per_row() / 16u);
}

TEST(RowCodec, RejectsBadWidth) {
  EXPECT_THROW(RowCodec(QuantMode::kNone, OneBitScale::kMax, 0),
               std::invalid_argument);
}

TEST(RowCodec, RawRoundTripIsExact) {
  const RowCodec codec(QuantMode::kNone, OneBitScale::kMax, 8);
  const auto row = test_row();
  util::Rng rng(1);
  std::vector<std::byte> buffer;
  codec.encode(42, row, buffer, rng);
  ASSERT_EQ(buffer.size(), codec.bytes_per_row());
  std::vector<float> decoded(8);
  EXPECT_EQ(codec.decode(buffer, decoded), 42);
  for (std::size_t i = 0; i < row.size(); ++i) {
    EXPECT_FLOAT_EQ(decoded[i], row[i]);
  }
}

TEST(RowCodec, OneBitMaxDecodesToSignTimesMax) {
  const RowCodec codec(QuantMode::kOneBit, OneBitScale::kMax, 8);
  const auto row = test_row();  // max |v| = 3.5
  util::Rng rng(1);
  std::vector<std::byte> buffer;
  codec.encode(7, row, buffer, rng);
  std::vector<float> decoded(8);
  EXPECT_EQ(codec.decode(buffer, decoded), 7);
  for (std::size_t i = 0; i < row.size(); ++i) {
    EXPECT_FLOAT_EQ(std::fabs(decoded[i]), 3.5f);
    if (row[i] > 0.0f) {
      EXPECT_GT(decoded[i], 0.0f);
    }
    if (row[i] < 0.0f) {
      EXPECT_LT(decoded[i], 0.0f);
    }
  }
}

TEST(RowCodec, OneBitMeanUsesMeanAbs) {
  const RowCodec codec(QuantMode::kOneBit, OneBitScale::kMean, 4);
  const std::vector<float> row{1.0f, -2.0f, 3.0f, -2.0f};  // mean|v| = 2
  util::Rng rng(1);
  std::vector<std::byte> buffer;
  codec.encode(0, row, buffer, rng);
  std::vector<float> decoded(4);
  codec.decode(buffer, decoded);
  EXPECT_FLOAT_EQ(decoded[0], 2.0f);
  EXPECT_FLOAT_EQ(decoded[1], -2.0f);
}

/// One 1-bit encode/decode of a Gaussian row of `width`: the relative L2
/// error ||v - q(v)|| / ||v|| and the cosine between v and q(v).
struct OneBitFidelity {
  double relative_error;
  double cosine;
};

OneBitFidelity one_bit_fidelity(OneBitScale scale, std::size_t width,
                                std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> row(width);
  for (auto& v : row) v = static_cast<float>(rng.next_normal());
  const RowCodec codec(QuantMode::kOneBit, scale, width);
  std::vector<std::byte> buffer;
  codec.encode(0, row, buffer, rng);
  std::vector<float> decoded(width);
  codec.decode(buffer, decoded);
  double error_sq = 0.0, dot = 0.0;
  for (std::size_t i = 0; i < width; ++i) {
    const double e = static_cast<double>(decoded[i]) - row[i];
    error_sq += e * e;
    dot += static_cast<double>(row[i]) * decoded[i];
  }
  const double norm = util::nrm2(row);
  return {std::sqrt(error_sq) / norm, dot / (norm * util::nrm2(decoded))};
}

TEST(RowCodec, OneBitMaxScaleIsNotAContraction) {
  // The paper's 1-bit scale inflates every component to max|v|, so on a
  // Gaussian row the error exceeds the signal: error feedback cannot
  // converge with it. It stays directionally faithful (signs are kept).
  const OneBitFidelity fidelity = one_bit_fidelity(OneBitScale::kMax, 128, 5);
  EXPECT_GT(fidelity.relative_error, 1.0);
  EXPECT_GT(fidelity.cosine, 0.5);
}

TEST(RowCodec, OneBitMeanScaleIsAContraction) {
  EXPECT_LT(one_bit_fidelity(OneBitScale::kMean, 128, 7).relative_error, 1.0);
}

TEST(RowCodec, OneBitMeanScaleErrsLessThanMaxScale) {
  EXPECT_LT(one_bit_fidelity(OneBitScale::kMean, 200, 11).relative_error,
            one_bit_fidelity(OneBitScale::kMax, 200, 11).relative_error);
}

TEST(RowCodec, OneSidedScaleVariants) {
  const std::vector<float> row{1.0f, -4.0f, 2.0f, -1.0f};
  util::Rng rng(1);
  std::vector<float> decoded(4);
  std::vector<std::byte> buffer;

  // negmax: scale from |negatives| = max(4, 1) = 4.
  RowCodec negmax(QuantMode::kOneBit, OneBitScale::kNegMax, 4);
  negmax.encode(0, row, buffer, rng);
  negmax.decode(buffer, decoded);
  EXPECT_FLOAT_EQ(decoded[0], 4.0f);

  // posmax: scale from positives = max(1, 2) = 2.
  buffer.clear();
  RowCodec posmax(QuantMode::kOneBit, OneBitScale::kPosMax, 4);
  posmax.encode(0, row, buffer, rng);
  posmax.decode(buffer, decoded);
  EXPECT_FLOAT_EQ(decoded[0], 2.0f);

  // negavg: mean(4, 1) = 2.5; posavg: mean(1, 2) = 1.5.
  buffer.clear();
  RowCodec negavg(QuantMode::kOneBit, OneBitScale::kNegMean, 4);
  negavg.encode(0, row, buffer, rng);
  negavg.decode(buffer, decoded);
  EXPECT_FLOAT_EQ(decoded[0], 2.5f);

  buffer.clear();
  RowCodec posavg(QuantMode::kOneBit, OneBitScale::kPosMean, 4);
  posavg.encode(0, row, buffer, rng);
  posavg.decode(buffer, decoded);
  EXPECT_FLOAT_EQ(decoded[0], 1.5f);
}

TEST(RowCodec, OneSidedFallsBackWhenSideEmpty) {
  // All-positive row with a negatives-based scale: falls back to max|v|.
  const std::vector<float> row{1.0f, 2.0f, 3.0f, 0.5f};
  util::Rng rng(1);
  std::vector<std::byte> buffer;
  RowCodec negmax(QuantMode::kOneBit, OneBitScale::kNegMax, 4);
  negmax.encode(0, row, buffer, rng);
  std::vector<float> decoded(4);
  negmax.decode(buffer, decoded);
  EXPECT_FLOAT_EQ(decoded[0], 3.0f);
}

TEST(RowCodec, AllZeroRowSurvives) {
  for (const QuantMode mode :
       {QuantMode::kNone, QuantMode::kOneBit, QuantMode::kTwoBit}) {
    const RowCodec codec(mode, OneBitScale::kMax, 4);
    const std::vector<float> row(4, 0.0f);
    util::Rng rng(1);
    std::vector<std::byte> buffer;
    codec.encode(3, row, buffer, rng);
    std::vector<float> decoded(4, 99.0f);
    EXPECT_EQ(codec.decode(buffer, decoded), 3);
    for (const float v : decoded) EXPECT_FLOAT_EQ(v, 0.0f);
  }
}

TEST(RowCodec, TwoBitValuesAreTernary) {
  const RowCodec codec(QuantMode::kTwoBit, OneBitScale::kMax, 8);
  const auto row = test_row();
  const float scale = util::amean(row);
  util::Rng rng(1);
  std::vector<std::byte> buffer;
  codec.encode(0, row, buffer, rng);
  std::vector<float> decoded(8);
  codec.decode(buffer, decoded);
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    const bool ternary = decoded[i] == 0.0f ||
                         std::fabs(std::fabs(decoded[i]) - scale) < 1e-6f;
    EXPECT_TRUE(ternary) << "component " << i << " = " << decoded[i];
    // Sign can only match or be zero.
    if (decoded[i] != 0.0f && row[i] != 0.0f) {
      EXPECT_GT(decoded[i] * row[i], 0.0f);
    }
  }
}

TEST(RowCodec, TwoBitAlwaysKeepsComponentsAtOrAboveScale) {
  // Regression for the sampling-probability clamp: components with
  // |v| >= scale (scale is the row *mean*, so every row that isn't
  // constant has some) must be kept with probability exactly 1 — a
  // nonzero code of the right sign under every RNG stream, never a
  // stochastic drop.
  const RowCodec codec(QuantMode::kTwoBit, OneBitScale::kMax, 4);
  const std::vector<float> row{4.0f, -6.0f, 0.5f, -0.25f};
  const float scale = util::amean(row);  // 2.6875; |row[0]|, |row[1]| above
  std::vector<std::byte> buffer;
  std::vector<float> decoded(4);
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    util::Rng rng(seed);
    buffer.clear();
    codec.encode(0, row, buffer, rng);
    codec.decode(buffer, decoded);
    EXPECT_FLOAT_EQ(decoded[0], scale) << "seed " << seed;
    EXPECT_FLOAT_EQ(decoded[1], -scale) << "seed " << seed;
  }
}

TEST(RowCodec, TwoBitIsUnbiasedInExpectation) {
  // E[decoded_i] = sign * scale * min(1, |v_i|/scale) = v_i (for
  // |v_i| <= scale). Average many stochastic encodings.
  const RowCodec codec(QuantMode::kTwoBit, OneBitScale::kMax, 2);
  const std::vector<float> row{0.5f, -1.5f};  // scale = mean|v| = 1.0
  util::Rng rng(7);
  double sum0 = 0.0, sum1 = 0.0;
  constexpr int kTrials = 20000;
  std::vector<std::byte> buffer;
  std::vector<float> decoded(2);
  for (int trial = 0; trial < kTrials; ++trial) {
    buffer.clear();
    codec.encode(0, row, buffer, rng);
    codec.decode(buffer, decoded);
    sum0 += decoded[0];
    sum1 += decoded[1];
  }
  EXPECT_NEAR(sum0 / kTrials, 0.5, 0.02);
  // |v| > scale saturates at -scale (bias is expected there).
  EXPECT_NEAR(sum1 / kTrials, -1.0, 0.02);
}

TEST(RowCodec, EncodeGradSortedAndSized) {
  const RowCodec codec(QuantMode::kOneBit, OneBitScale::kMax, 4);
  kge::SparseGrad grad(4);
  grad.accumulate(9)[0] = 1.0f;
  grad.accumulate(2)[1] = -2.0f;
  grad.accumulate(5)[2] = 3.0f;
  util::Rng rng(1);
  std::vector<std::byte> buffer;
  codec.encode_grad(grad, buffer, rng);
  ASSERT_EQ(buffer.size(), 3 * codec.bytes_per_row());
  std::vector<float> values(4);
  EXPECT_EQ(codec.decode({buffer.data(), codec.bytes_per_row()}, values), 2);
  EXPECT_EQ(codec.decode({buffer.data() + codec.bytes_per_row(),
                          codec.bytes_per_row()},
                         values),
            5);
}

TEST(RowCodec, DecodeAccumulateSums) {
  const RowCodec codec(QuantMode::kNone, OneBitScale::kMax, 2);
  kge::SparseGrad a(2), b(2);
  a.accumulate(1)[0] = 1.0f;
  b.accumulate(1)[0] = 2.0f;
  b.accumulate(3)[1] = 5.0f;
  util::Rng rng(1);
  std::vector<std::byte> buf_a, buf_b;
  codec.encode_grad(a, buf_a, rng);
  codec.encode_grad(b, buf_b, rng);
  // Concatenate as an allgather would.
  std::vector<std::byte> gathered = buf_a;
  gathered.insert(gathered.end(), buf_b.begin(), buf_b.end());
  kge::SparseGrad merged(2);
  codec.decode_accumulate(gathered, merged);
  EXPECT_EQ(merged.num_rows(), 2u);
  EXPECT_FLOAT_EQ(merged.row(1)[0], 3.0f);
  EXPECT_FLOAT_EQ(merged.row(3)[1], 5.0f);
}

TEST(RowCodec, DecodeAccumulateRejectsRaggedBuffer) {
  const RowCodec codec(QuantMode::kNone, OneBitScale::kMax, 2);
  kge::SparseGrad merged(2);
  std::vector<std::byte> bogus(codec.bytes_per_row() + 1);
  EXPECT_THROW(codec.decode_accumulate(bogus, merged),
               std::invalid_argument);
}

TEST(RowCodec, EncodeRejectsWrongWidth) {
  const RowCodec codec(QuantMode::kNone, OneBitScale::kMax, 4);
  std::vector<float> row(5);
  std::vector<std::byte> buffer;
  util::Rng rng(1);
  EXPECT_THROW(codec.encode(0, row, buffer, rng), std::invalid_argument);
}

TEST(RowCodec, FeedbackParksTheErrorOfTheCodeSent) {
  // With a residual store, encode_grad folds each row's parked residual in
  // and parks exactly the folded row minus the code it wrote, as decode()
  // reads it back.
  for (const QuantMode mode : {QuantMode::kOneBit, QuantMode::kTwoBit}) {
    const RowCodec codec(mode, OneBitScale::kMax, 8);
    const auto row = test_row();
    kge::SparseGrad grad(8);
    for (const std::int32_t id : {3, 9}) {
      std::ranges::copy(row, grad.accumulate(id).begin());
    }
    kge::SparseGrad residual(8);
    std::ranges::fill(residual.accumulate(3), 0.25f);  // parked earlier
    std::ranges::fill(residual.accumulate(50), 1.0f);  // absent: stays
    util::Rng rng(7);
    std::vector<std::byte> wire;
    codec.encode_grad(grad, wire, rng, &residual);
    ASSERT_EQ(wire.size(), 2 * codec.bytes_per_row());

    std::vector<float> sent(8);
    for (std::size_t r = 0; r < 2; ++r) {
      const std::int32_t id = codec.decode(
          std::span(wire).subspan(r * codec.bytes_per_row(),
                                  codec.bytes_per_row()),
          sent);
      const float carried = id == 3 ? 0.25f : 0.0f;
      const auto folded = grad.row(id);
      for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(folded[i], row[i] + carried) << "row " << id;
        EXPECT_EQ(residual.row(id)[i], folded[i] - sent[i]) << "row " << id;
      }
    }
    EXPECT_EQ(residual.num_rows(), 3u);
    for (const float v : residual.row(50)) EXPECT_EQ(v, 1.0f);
  }
}

TEST(RowCodec, WidePayloadRoundTrip) {
  // Width 200 matches the paper's "up to 200 dimensions" remark.
  const RowCodec codec(QuantMode::kOneBit, OneBitScale::kMax, 200);
  std::vector<float> row(200);
  util::Rng rng(5);
  for (auto& v : row) v = static_cast<float>(rng.next_double(-1, 1));
  std::vector<std::byte> buffer;
  codec.encode(123, row, buffer, rng);
  ASSERT_EQ(buffer.size(), codec.bytes_per_row());
  std::vector<float> decoded(200);
  EXPECT_EQ(codec.decode(buffer, decoded), 123);
  for (std::size_t i = 0; i < 200; ++i) {
    if (row[i] != 0.0f) {
      EXPECT_GT(decoded[i] * row[i], 0.0f);
    }
  }
}

/// FNV-1a over what decode() and decode_accumulate() read from wire rows
/// built byte by byte. Every width on and around a code-byte or vector
/// boundary; every scale whose bit pattern arithmetic would mangle (+-0, a
/// denormal, +-inf, NaNs, a negative value); row r's code byte j is
/// (r + 37j) mod 256, so every byte position, the partial last one and
/// its padding bits included, takes every value 0-255 (2-bit code 3 too).
/// The merge adds into rows that start at -0.0f, so a +0.0f zero code
/// shows.
///
/// Under a NaN scale no id repeats: which of two NaNs an x86 add returns
/// depends on the operand order the compiler picks, which C++ leaves open.
std::uint64_t reader_digest(QuantMode mode) {
  constexpr std::uint32_t kScaleBits[] = {
      0x00000000u,  // +0
      0x80000000u,  // -0
      0x00000001u,  // the smallest denormal
      0x803ff00fu,  // a negative denormal
      0x7f800000u,  // +inf
      0xff800000u,  // -inf
      0x7fc00000u,  // the default quiet NaN
      0xffc00123u,  // a negative NaN with a payload
      0xbfc00000u,  // -1.5
      0x3e800000u,  // 0.25
  };
  constexpr std::int32_t kRows = 256;
  std::uint64_t hash = util::kFnv1aOffset;
  for (const std::int32_t width : {1, 7, 8, 9, 63, 64, 65, 200}) {
    const RowCodec codec(mode, OneBitScale::kMax, width);
    const std::size_t row_bytes = codec.bytes_per_row();
    const std::size_t header = sizeof(std::int32_t) + sizeof(float);
    for (const std::uint32_t scale : kScaleBits) {
      // Ids repeat once, half a buffer apart, unless the scale is a NaN.
      const bool nan = std::isnan(std::bit_cast<float>(scale));
      std::vector<std::byte> wire(kRows * row_bytes);
      for (std::int32_t r = 0; r < kRows; ++r) {
        std::byte* row = wire.data() + static_cast<std::size_t>(r) * row_bytes;
        const std::int32_t id = nan ? r : r % (kRows / 2);
        std::memcpy(row, &id, sizeof(id));
        std::memcpy(row + sizeof(id), &scale, sizeof(scale));
        for (std::size_t j = 0; j < row_bytes - header; ++j) {
          row[header + j] = static_cast<std::byte>((r + 37 * j) % 256);
        }
      }
      std::vector<float> values(static_cast<std::size_t>(width));
      for (std::size_t at = 0; at < wire.size(); at += row_bytes) {
        const std::int32_t id =
            codec.decode(std::span(wire).subspan(at, row_bytes), values);
        hash = testing_util::fnv1a_value(id, hash);
        hash = util::fnv1a(values.data(), values.size() * sizeof(float), hash);
      }
      // Even ids below kRows / 2 start as -0.0f rows; the merge creates
      // the rest. Each half adds one value per element, and both sums are
      // digested.
      kge::SparseGrad merged(width);
      for (std::int32_t id = 0; id < kRows / 2; id += 2) {
        std::ranges::fill(merged.accumulate(id), -0.0f);
      }
      const std::size_t half = wire.size() / 2;
      for (const std::span<const std::byte> part :
           {std::span<const std::byte>(wire).first(half),
            std::span<const std::byte>(wire).subspan(half)}) {
        codec.decode_accumulate(part, merged);
        for (const kge::SparseGrad::SlotRef& slot : merged.sorted_slots()) {
          const auto row = merged.row_at(slot.offset);
          hash = testing_util::fnv1a_value(slot.id, hash);
          hash = util::fnv1a(row.data(), row.size_bytes(), hash);
        }
      }
    }
  }
  return hash;
}

TEST(RowCodec, ReaderBytesMatchGolden) {
  struct Case {
    QuantMode mode;
    std::uint64_t golden;
  };
  for (const Case& c : {Case{QuantMode::kOneBit, 0x8ba4814ad4015d25ULL},
                        Case{QuantMode::kTwoBit, 0x3127642bc1508b0dULL}}) {
    const std::uint64_t digest = reader_digest(c.mode);
    EXPECT_EQ(digest, c.golden)
        << "mode " << static_cast<int>(c.mode) << ": golden "
        << testing_util::hex64(c.golden) << ", got "
        << testing_util::hex64(digest);
  }
}

}  // namespace
}  // namespace dynkge::core
