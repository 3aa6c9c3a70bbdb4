#include "core/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "util/span_math.hpp"

namespace dynkge::core {
namespace {

void append_bytes(std::vector<std::byte>& out, const void* data,
                  std::size_t n) {
  const auto* p = static_cast<const std::byte*>(data);
  out.insert(out.end(), p, p + n);
}

template <typename T>
T read_as(const std::byte* p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

}  // namespace

RowCodec::RowCodec(QuantMode mode, OneBitScale scale_variant,
                   std::int32_t width)
    : mode_(mode), scale_variant_(scale_variant), width_(width) {
  if (width <= 0) throw std::invalid_argument("RowCodec: width must be > 0");
  const auto w = static_cast<std::size_t>(width);
  switch (mode_) {
    case QuantMode::kNone:
      bytes_per_row_ = sizeof(std::int32_t) + w * sizeof(float);
      break;
    case QuantMode::kOneBit:
      bytes_per_row_ = sizeof(std::int32_t) + sizeof(float) + (w + 7) / 8;
      break;
    case QuantMode::kTwoBit:
      bytes_per_row_ = sizeof(std::int32_t) + sizeof(float) + (w + 3) / 4;
      break;
  }
}

float RowCodec::compute_scale(std::span<const float> row) const {
  // One-sided statistics fall back to max|v| when that side is empty (or
  // contributes a zero scale), so a same-signed row still round-trips.
  double sum = 0.0;
  float best = 0.0f;
  std::size_t count = 0;
  const bool negatives = scale_variant_ == OneBitScale::kNegMax ||
                         scale_variant_ == OneBitScale::kNegMean;
  const bool positives = scale_variant_ == OneBitScale::kPosMax ||
                         scale_variant_ == OneBitScale::kPosMean;
  for (const float v : row) {
    const float a = std::fabs(v);
    if (negatives && v >= 0.0f) continue;
    if (positives && v <= 0.0f) continue;
    best = std::max(best, a);
    sum += a;
    ++count;
  }
  switch (scale_variant_) {
    case OneBitScale::kMax:
    case OneBitScale::kNegMax:
    case OneBitScale::kPosMax:
      break;  // `best` already holds the max
    case OneBitScale::kMean:
    case OneBitScale::kNegMean:
    case OneBitScale::kPosMean:
      best = count == 0 ? 0.0f : static_cast<float>(sum / count);
      break;
  }
  if (best == 0.0f) best = util::amax(row);
  return best;
}

void RowCodec::encode(std::int32_t id, std::span<const float> row,
                      std::vector<std::byte>& out, util::Rng& rng) const {
  if (row.size() != static_cast<std::size_t>(width_)) {
    throw std::invalid_argument("RowCodec::encode: width mismatch");
  }
  append_bytes(out, &id, sizeof(id));
  switch (mode_) {
    case QuantMode::kNone: {
      append_bytes(out, row.data(), row.size_bytes());
      return;
    }
    case QuantMode::kOneBit: {
      const float scale = compute_scale(row);
      append_bytes(out, &scale, sizeof(scale));
      std::uint8_t bits = 0;
      int filled = 0;
      for (std::int32_t i = 0; i < width_; ++i) {
        bits |= static_cast<std::uint8_t>(row[i] >= 0.0f) << filled;
        if (++filled == 8) {
          out.push_back(static_cast<std::byte>(bits));
          bits = 0;
          filled = 0;
        }
      }
      if (filled != 0) out.push_back(static_cast<std::byte>(bits));
      return;
    }
    case QuantMode::kTwoBit: {
      // TernGrad with the paper's modification: mean|v| as the scale.
      const float scale = util::amean(row);
      append_bytes(out, &scale, sizeof(scale));
      std::uint8_t codes = 0;
      int filled = 0;
      for (std::int32_t i = 0; i < width_; ++i) {
        std::uint8_t code = 0;  // zero
        if (scale > 0.0f) {
          // Explicit clamp: elements with |v| >= scale (common — scale is
          // the row *mean*) must keep with probability exactly 1. The
          // clamp is byte-identical to passing the raw ratio because
          // next_bernoulli(p) is next_double() < p with next_double() in
          // [0, 1), but an out-of-range probability is a latent bug if
          // the Bernoulli implementation ever changes.
          const double p =
              std::min(1.0, static_cast<double>(std::fabs(row[i]) / scale));
          if (rng.next_bernoulli(p)) code = row[i] >= 0.0f ? 1 : 2;
        }
        codes |= static_cast<std::uint8_t>(code << (2 * filled));
        if (++filled == 4) {
          out.push_back(static_cast<std::byte>(codes));
          codes = 0;
          filled = 0;
        }
      }
      if (filled != 0) out.push_back(static_cast<std::byte>(codes));
      return;
    }
  }
}

std::int32_t RowCodec::decode(std::span<const std::byte> in,
                              std::span<float> values) const {
  if (in.size() != bytes_per_row_ ||
      values.size() != static_cast<std::size_t>(width_)) {
    throw std::invalid_argument("RowCodec::decode: size mismatch");
  }
  const std::byte* p = in.data();
  const auto id = read_as<std::int32_t>(p);
  p += sizeof(std::int32_t);
  switch (mode_) {
    case QuantMode::kNone: {
      std::memcpy(values.data(), p, values.size_bytes());
      return id;
    }
    case QuantMode::kOneBit: {
      const auto scale = read_as<float>(p);
      p += sizeof(float);
      for (std::int32_t i = 0; i < width_; ++i) {
        const auto bits = static_cast<std::uint8_t>(p[i / 8]);
        const bool positive = (bits >> (i % 8)) & 1u;
        values[i] = positive ? scale : -scale;
      }
      return id;
    }
    case QuantMode::kTwoBit: {
      const auto scale = read_as<float>(p);
      p += sizeof(float);
      for (std::int32_t i = 0; i < width_; ++i) {
        const auto codes = static_cast<std::uint8_t>(p[i / 4]);
        const std::uint8_t code = (codes >> (2 * (i % 4))) & 3u;
        values[i] = code == 0 ? 0.0f : (code == 1 ? scale : -scale);
      }
      return id;
    }
  }
  // Exhaustive switch above — reaching here means mode_ holds a value
  // outside the enum (memory corruption or an unhandled new mode). The
  // previous fallthrough silently returned the id with `values` untouched,
  // which would poison the gradient merge; fail loudly instead.
  std::fprintf(stderr, "RowCodec::decode: unhandled QuantMode %d\n",
               static_cast<int>(mode_));
  std::abort();
}

void RowCodec::encode_grad(const kge::SparseGrad& grad,
                           std::vector<std::byte>& out,
                           util::Rng& rng) const {
  if (grad.width() != width_) {
    throw std::invalid_argument("RowCodec::encode_grad: width mismatch");
  }
  // Block form: one pre-sized buffer, rows resolved through sorted_slots()
  // (one arena access each, no index read). Iteration order — and
  // therefore the 2-bit mode's RNG draw order — is ascending id.
  out.clear();
  out.reserve(grad.num_rows() * bytes_per_row_);
  for (const kge::SparseGrad::SlotRef& slot : grad.sorted_slots()) {
    encode(slot.id, grad.row_at(slot.offset), out, rng);
  }
}

void RowCodec::decode_accumulate(std::span<const std::byte> in,
                                 kge::SparseGrad& accumulator) const {
  if (in.size() % bytes_per_row_ != 0) {
    throw std::invalid_argument(
        "RowCodec::decode_accumulate: buffer is not a whole number of rows");
  }
  // Decode straight into the accumulator rows — no per-call temp vector
  // and no separate add pass. Each element adds the exact value decode()
  // would have produced (including +0.0f for a 2-bit zero code, so a
  // -0.0f accumulator element is still normalized the way the two-pass
  // path did it).
  for (std::size_t offset = 0; offset < in.size();
       offset += bytes_per_row_) {
    const std::byte* p = in.data() + offset;
    const auto id = read_as<std::int32_t>(p);
    p += sizeof(std::int32_t);
    auto row = accumulator.accumulate(id);
    switch (mode_) {
      case QuantMode::kNone: {
        for (std::int32_t i = 0; i < width_; ++i) {
          row[i] += read_as<float>(p + static_cast<std::size_t>(i) *
                                           sizeof(float));
        }
        break;
      }
      case QuantMode::kOneBit: {
        const auto scale = read_as<float>(p);
        p += sizeof(float);
        for (std::int32_t i = 0; i < width_; ++i) {
          const auto bits = static_cast<std::uint8_t>(p[i / 8]);
          const bool positive = (bits >> (i % 8)) & 1u;
          row[i] += positive ? scale : -scale;
        }
        break;
      }
      case QuantMode::kTwoBit: {
        const auto scale = read_as<float>(p);
        p += sizeof(float);
        for (std::int32_t i = 0; i < width_; ++i) {
          const auto codes = static_cast<std::uint8_t>(p[i / 4]);
          const std::uint8_t code = (codes >> (2 * (i % 4))) & 3u;
          row[i] += code == 0 ? 0.0f : (code == 1 ? scale : -scale);
        }
        break;
      }
    }
  }
}

void RowCodec::quantized_values(std::span<const float> in,
                                std::span<float> out,
                                std::vector<std::byte>& scratch,
                                util::Rng& rng) const {
  // `scratch` is caller-owned so the error-feedback loop (one call per
  // gradient row per step) stops heap-allocating: after the first call
  // the buffer's capacity is bytes_per_row() and clear() is free.
  scratch.clear();
  encode(0, in, scratch, rng);
  decode(scratch, out);
}

}  // namespace dynkge::core
