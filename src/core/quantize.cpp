#include "core/quantize.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "util/span_math.hpp"

namespace dynkge::core {
namespace {

template <typename T>
T read_as(const std::byte* p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

/// Pack code(0..count-1), `Bits` bits each, low bits first, into
/// ceil(count * Bits / 8) bytes at `out`. Codes are taken in element
/// order, which fixes the 2-bit mode's RNG draw order.
template <int Bits, typename Code>
void pack_codes(std::byte* out, std::int32_t count, Code&& code) {
  constexpr int kPerByte = 8 / Bits;
  std::uint8_t byte = 0;
  int filled = 0;
  for (std::int32_t i = 0; i < count; ++i) {
    byte |= static_cast<std::uint8_t>(code(i) << (Bits * filled));
    if (++filled == kPerByte) {
      *out++ = static_cast<std::byte>(byte);
      byte = 0;
      filled = 0;
    }
  }
  if (filled != 0) *out = static_cast<std::byte>(byte);
}

// The readers' mask tables: one entry per code byte, one mask per element
// it holds (low bits first, as pack_codes() writes them). Masks act on the
// scale's bit pattern, so each value is exactly scale, -scale (the sign bit
// flipped, as unary minus does) or +0.0f for every scale, inf and NaN
// included; `sign * scale` would give NaN for 0 * inf and keep a NaN's
// sign where -scale flips it.
constexpr std::uint32_t kSignBit = 0x80000000u;

/// 1-bit: element k reads scale ^ sign[k]; a clear bit reads -scale.
constexpr auto kOneBitSigns = [] {
  std::array<std::array<std::uint32_t, 8>, 256> table{};
  for (unsigned byte = 0; byte < 256; ++byte) {
    for (unsigned k = 0; k < 8; ++k) {
      table[byte][k] = (byte >> k) & 1u ? 0u : kSignBit;
    }
  }
  return table;
}();

/// 2-bit: element k reads (scale & keep[k]) ^ sign[k]. Code 0 reads +0.0f,
/// 1 reads scale, and 2 and 3 read -scale.
struct TwoBitMasks {
  std::array<std::uint32_t, 4> keep;
  std::array<std::uint32_t, 4> sign;
};
constexpr auto kTwoBitMasks = [] {
  std::array<TwoBitMasks, 256> table{};
  for (unsigned byte = 0; byte < 256; ++byte) {
    for (unsigned k = 0; k < 4; ++k) {
      const unsigned code = (byte >> (2 * k)) & 3u;
      table[byte].keep[k] = code == 0 ? 0u : ~0u;
      table[byte].sign[k] = code >= 2 ? kSignBit : 0u;
    }
  }
  return table;
}();

/// Four masks or values in one 16-byte vector. A code byte's values are
/// formed as whole vectors: left to itself, GCC vectorizes the byte loop
/// instead, gathering table entries across bytes, and the 1-bit merge runs
/// about 2.5x slower.
using Lanes = std::uint32_t __attribute__((vector_size(16)));

Lanes load_lanes(const std::uint32_t* masks) {
  Lanes lanes;
  std::memcpy(&lanes, masks, sizeof(lanes));
  return lanes;
}

void store_lanes(float* values, Lanes lanes) {
  std::memcpy(values, &lanes, sizeof(lanes));
}

/// Decode `count` elements packed PerByte to a code byte: fill(code,
/// values) writes a byte's values into a local array, and sink(i, values)
/// takes them as elements i, i + 1, ... The last, partial byte passes on
/// only its remaining elements.
template <std::size_t PerByte, typename Fill, typename Sink>
void unpack_codes(const std::byte* codes, std::int32_t count, Fill&& fill,
                  Sink&& sink) {
  constexpr auto kStep = static_cast<std::int32_t>(PerByte);
  std::array<float, PerByte> values;
  std::int32_t i = 0;
  for (; i + kStep <= count; i += kStep) {
    fill(std::to_integer<std::uint8_t>(*codes++), values);
    sink(i, std::span<const float>(values));
  }
  if (i < count) {
    fill(std::to_integer<std::uint8_t>(*codes), values);
    sink(i, std::span<const float>(values).first(
                static_cast<std::size_t>(count - i)));
  }
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

void RowCodec::write_row(std::int32_t id, std::span<const float> row,
                         std::byte* out, util::Rng& rng) const {
  std::memcpy(out, &id, sizeof(id));
  out += sizeof(id);
  switch (mode_) {
    case QuantMode::kNone:
      std::memcpy(out, row.data(), row.size_bytes());
      return;
    case QuantMode::kOneBit: {
      const float scale = compute_scale(row);
      std::memcpy(out, &scale, sizeof(scale));
      pack_codes<1>(out + sizeof(scale), width_, [&](std::int32_t i) {
        return static_cast<unsigned>(row[i] >= 0.0f);
      });
      return;
    }
    case QuantMode::kTwoBit: {
      // TernGrad with the paper's modification: mean|v| as the scale.
      const float scale = util::amean(row);
      std::memcpy(out, &scale, sizeof(scale));
      pack_codes<2>(out + sizeof(scale), width_, [&](std::int32_t i) {
        if (!(scale > 0.0f)) return 0u;  // zero code, no draw
        // Explicit clamp: elements with |v| >= scale (common — scale is
        // the row *mean*) must keep with probability exactly 1. The clamp
        // is byte-identical to passing the raw ratio because
        // next_bernoulli(p) is next_double() < p with next_double() in
        // [0, 1), but an out-of-range probability is a latent bug if the
        // Bernoulli implementation ever changes.
        const double p =
            std::min(1.0, static_cast<double>(std::fabs(row[i]) / scale));
        if (!rng.next_bernoulli(p)) return 0u;
        return row[i] >= 0.0f ? 1u : 2u;
      });
      return;
    }
  }
}

template <typename Sink>
void RowCodec::read_row(const std::byte* in, Sink&& sink) const {
  in += sizeof(std::int32_t);  // the id
  switch (mode_) {
    case QuantMode::kNone:
      for (std::int32_t i = 0; i < width_; ++i) {
        const auto value =
            read_as<float>(in + static_cast<std::size_t>(i) * sizeof(float));
        sink(i, std::span<const float>(&value, 1));
      }
      return;
    case QuantMode::kOneBit: {
      const auto scale = read_as<std::uint32_t>(in);
      const Lanes scales = {scale, scale, scale, scale};
      unpack_codes<8>(
          in + sizeof(scale), width_,
          [scales](std::uint8_t code, std::array<float, 8>& values) {
            const std::uint32_t* signs = kOneBitSigns[code].data();
            store_lanes(values.data(), scales ^ load_lanes(signs));
            store_lanes(values.data() + 4, scales ^ load_lanes(signs + 4));
          },
          sink);
      return;
    }
    case QuantMode::kTwoBit: {
      const auto scale = read_as<std::uint32_t>(in);
      const Lanes scales = {scale, scale, scale, scale};
      unpack_codes<4>(
          in + sizeof(scale), width_,
          [scales](std::uint8_t code, std::array<float, 4>& values) {
            const TwoBitMasks& masks = kTwoBitMasks[code];
            store_lanes(values.data(),
                        (scales & load_lanes(masks.keep.data())) ^
                            load_lanes(masks.sign.data()));
          },
          sink);
      return;
    }
  }
  // Exhaustive switch above — reaching here means mode_ holds a value
  // outside the enum (memory corruption or an unhandled new mode). Leaving
  // the values untouched would poison the gradient merge; fail loudly.
  std::fprintf(stderr, "RowCodec: unhandled QuantMode %d\n",
               static_cast<int>(mode_));
  std::abort();
}

void RowCodec::encode(std::int32_t id, std::span<const float> row,
                      std::vector<std::byte>& out, util::Rng& rng) const {
  if (row.size() != static_cast<std::size_t>(width_)) {
    throw std::invalid_argument("RowCodec::encode: width mismatch");
  }
  const std::size_t at = out.size();
  out.resize(at + bytes_per_row_);
  write_row(id, row, out.data() + at, rng);
}

std::int32_t RowCodec::decode(std::span<const std::byte> in,
                              std::span<float> values) const {
  if (in.size() != bytes_per_row_ ||
      values.size() != static_cast<std::size_t>(width_)) {
    throw std::invalid_argument("RowCodec::decode: size mismatch");
  }
  read_row(in.data(), [&](std::int32_t i, std::span<const float> v) {
    std::ranges::copy(v, values.begin() + i);
  });
  return read_as<std::int32_t>(in.data());
}

void RowCodec::encode_grad(kge::SparseGrad& grad, std::vector<std::byte>& out,
                           util::Rng& rng, kge::SparseGrad* residual) const {
  if (grad.width() != width_ ||
      (residual != nullptr && residual->width() != width_)) {
    throw std::invalid_argument("RowCodec::encode_grad: width mismatch");
  }
  // Rows are resolved through sorted_slots() (one arena access each, no
  // index read). No row is created or erased here, so the slot list stays
  // valid throughout.
  const std::vector<kge::SparseGrad::SlotRef>& slots = grad.sorted_slots();
  out.resize(slots.size() * bytes_per_row_);
  std::byte* at = out.data();
  for (const kge::SparseGrad::SlotRef& slot : slots) {
    const std::span<float> row = grad.row_at(slot.offset);
    if (residual == nullptr) {
      write_row(slot.id, row, at, rng);
    } else {
      // A residual parked for a row absent this step stays put and flows
      // in whenever the row next appears. A fresh parked row is zero and
      // is not added: x + 0.0f would turn a -0.0f element into +0.0f.
      const bool fresh = !residual->has(slot.id);
      const std::span<float> parked = residual->accumulate(slot.id);
      if (!fresh) {
        for (std::int32_t i = 0; i < width_; ++i) row[i] += parked[i];
      }
      write_row(slot.id, row, at, rng);
      read_row(at, [&](std::int32_t i, std::span<const float> sent) {
        for (std::size_t k = 0; k < sent.size(); ++k) {
          parked[i + k] = row[i + k] - sent[k];
        }
      });
    }
    at += bytes_per_row_;
  }
}

void RowCodec::decode_accumulate(std::span<const std::byte> in,
                                 kge::SparseGrad& accumulator) const {
  if (in.size() % bytes_per_row_ != 0) {
    throw std::invalid_argument(
        "RowCodec::decode_accumulate: buffer is not a whole number of rows");
  }
  // Each reader value is added straight into the accumulator row, once
  // per element — including +0.0f for a 2-bit zero code, so a -0.0f
  // accumulator element is normalized exactly as decode-then-add would.
  // The values come from a local array, so a code byte's adds vectorize.
  for (std::size_t offset = 0; offset < in.size();
       offset += bytes_per_row_) {
    const std::byte* p = in.data() + offset;
    const std::span<float> row =
        accumulator.accumulate(read_as<std::int32_t>(p));
    read_row(p, [&](std::int32_t i, std::span<const float> v) {
      for (std::size_t k = 0; k < v.size(); ++k) row[i + k] += v[k];
    });
  }
}

}  // namespace dynkge::core
