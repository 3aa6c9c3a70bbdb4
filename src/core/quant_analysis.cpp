#include "core/quant_analysis.hpp"

#include <cmath>
#include <vector>

#include "util/span_math.hpp"

namespace dynkge::core {

QuantizationQuality analyze_quantization(const RowCodec& codec,
                                         std::span<const float> row,
                                         util::Rng& rng, int trials) {
  QuantizationQuality quality;
  const RowCodec raw(QuantMode::kNone, OneBitScale::kMax, codec.width());
  quality.compression_ratio =
      static_cast<double>(raw.bytes_per_row()) /
      static_cast<double>(codec.bytes_per_row());

  const double norm = util::nrm2(row);
  std::vector<float> decoded(row.size());
  std::vector<std::byte> wire;
  double error_sq_sum = 0.0, dot_sum = 0.0, decoded_norm_sum = 0.0,
         bias_sum = 0.0;
  for (int trial = 0; trial < trials; ++trial) {
    wire.clear();
    codec.encode(0, row, wire, rng);
    codec.decode(wire, decoded);
    double error_sq = 0.0, dot = 0.0, decoded_sq = 0.0, bias = 0.0;
    for (std::size_t i = 0; i < row.size(); ++i) {
      const double e = static_cast<double>(decoded[i]) - row[i];
      error_sq += e * e;
      dot += static_cast<double>(row[i]) * decoded[i];
      decoded_sq += static_cast<double>(decoded[i]) * decoded[i];
      bias += e;
    }
    error_sq_sum += error_sq;
    dot_sum += dot;
    decoded_norm_sum += std::sqrt(decoded_sq);
    bias_sum += bias / static_cast<double>(row.size());
  }
  const double mean_error = std::sqrt(error_sq_sum / trials);
  const double mean_decoded_norm = decoded_norm_sum / trials;
  quality.relative_l2_error = norm > 0.0 ? mean_error / norm : 0.0;
  quality.cosine_alignment =
      (norm > 0.0 && mean_decoded_norm > 0.0)
          ? (dot_sum / trials) / (norm * mean_decoded_norm)
          : 1.0;
  quality.mean_bias = bias_sum / trials;
  quality.contraction = quality.relative_l2_error < 1.0;
  return quality;
}

}  // namespace dynkge::core
