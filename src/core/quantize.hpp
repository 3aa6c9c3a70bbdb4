// Strategy 3 — gradient quantization (paper section 4.3).
//
// RowCodec serializes sparse gradient rows into the wire format used by
// the all-gather exchange. Three modes:
//
//   kNone   : [int32 id][width x float32]                (4 + 4w bytes)
//   kOneBit : [int32 id][float32 scale][w sign bits]     (8 + ceil(w/8))
//             decoded value = sign(v_i) * scale
//             scale = max|v| (paper's choice) or one of the section-4.3
//             variants (avg / negmax / posmax / negavg / posavg)
//   kTwoBit : [int32 id][float32 scale][w 2-bit codes]   (8 + ceil(w/4))
//             TernGrad-style: code in {0, +1, -1}, scale = mean|v|,
//             P(code_i != 0) = min(1, |v_i| / scale)   (stochastic,
//             unbiased in expectation)
//
// Each mode has one row writer and one row reader. Every entry point goes
// through them: encode/encode_grad write, decode/decode_accumulate read,
// and error feedback reads back the code it just wrote, so the parked
// residual is the error of the code that was sent. The 1-bit and 2-bit
// readers decode a code byte at a time from constant 256-entry mask tables
// applied to the scale's bit pattern, so every value is exactly scale,
// -scale or +0.0f for every scale, infinities and NaNs included.
//
// The 1-bit scheme cuts the per-value payload 32x, which is what shifts
// the all-reduce/all-gather crossover and lets the dynamic selector pick
// all-gather ~60% more often (paper section 4.3).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/strategy_config.hpp"
#include "kge/embedding.hpp"
#include "util/rng.hpp"

namespace dynkge::core {

class RowCodec {
 public:
  RowCodec(QuantMode mode, OneBitScale scale_variant, std::int32_t width);

  QuantMode mode() const { return mode_; }
  std::int32_t width() const { return width_; }

  /// Fixed serialized size of one row.
  std::size_t bytes_per_row() const { return bytes_per_row_; }

  /// Append the serialized row to `out`. `rng` drives the 2-bit stochastic
  /// zeroing and is unused by the other modes.
  void encode(std::int32_t id, std::span<const float> row,
              std::vector<std::byte>& out, util::Rng& rng) const;

  /// Parse one serialized row (exactly bytes_per_row() bytes): fills
  /// `values` (size width()) and returns the row id.
  std::int32_t decode(std::span<const std::byte> in,
                      std::span<float> values) const;

  /// Serialize a whole gradient into `out`, sized once, rows in ascending
  /// id order (which is also the 2-bit mode's RNG draw order). With
  /// `residual` (error feedback: a store of width() that lives across
  /// steps), each row first gets its parked residual added in `grad`, and
  /// the row minus its code, as decode() would read it back, is parked in
  /// its place.
  void encode_grad(kge::SparseGrad& grad, std::vector<std::byte>& out,
                   util::Rng& rng, kge::SparseGrad* residual = nullptr) const;

  /// Parse a buffer of serialized rows, *adding* each row's values into
  /// the accumulator (the merge step of the sparse exchange).
  void decode_accumulate(std::span<const std::byte> in,
                         kge::SparseGrad& accumulator) const;

 private:
  /// The writer: bytes_per_row() bytes of `row`'s code at `out`.
  void write_row(std::int32_t id, std::span<const float> row,
                 std::byte* out, util::Rng& rng) const;
  /// The reader: sink(i, values) for the row at `in`, in element order,
  /// where `values` (a span) are elements i, i + 1, ...: one code byte's
  /// eight or four (fewer for the last byte), or one raw float.
  template <typename Sink>
  void read_row(const std::byte* in, Sink&& sink) const;

  float compute_scale(std::span<const float> row) const;

  QuantMode mode_;
  OneBitScale scale_variant_;
  std::int32_t width_;
  std::size_t bytes_per_row_;
};

}  // namespace dynkge::core
