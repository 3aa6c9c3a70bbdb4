#include "kge/rotate_model.hpp"

#include <cmath>
#include <vector>

namespace dynkge::kge {
namespace {

constexpr float kPi = 3.14159265358979323846f;
constexpr double kEpsilon = RotatEModel::kEpsilon;

}  // namespace

void RotatEModel::init(util::Rng& rng) {
  const float scale =
      init_scale_ * gamma_ / static_cast<float>(2 * rank_) * 4.0f;
  entities_.init_uniform(rng, scale);
  // Phases cover the full circle regardless of the entity init scale.
  for (auto& theta : relations_.flat()) {
    theta = static_cast<float>(rng.next_double(-kPi, kPi));
  }
}

void RotatEModel::score_tails_block(EntityId h, RelationId r, EntityId begin,
                                    std::span<double> out) const {
  const auto eh = entities_.row(h);
  const auto phases = relations_.row(r);
  const std::int32_t k = rank_;
  // Rotate the head once; each candidate then costs one pass.
  std::vector<float> rotated(2 * k);
  for (std::int32_t i = 0; i < k; ++i) {
    const float c = std::cos(phases[i]);
    const float s = std::sin(phases[i]);
    rotated[i] = eh[i] * c - eh[k + i] * s;
    rotated[k + i] = eh[i] * s + eh[k + i] * c;
  }
  for (std::size_t j = 0; j < out.size(); ++j) {
    const auto et = entities_.row(begin + static_cast<EntityId>(j));
    double distance = 0.0;
    for (std::int32_t i = 0; i < k; ++i) {
      const double d_re = rotated[i] - et[i];
      const double d_im = rotated[k + i] - et[k + i];
      distance += std::sqrt(d_re * d_re + d_im * d_im + kEpsilon);
    }
    out[j] = gamma_ - distance;
  }
}

}  // namespace dynkge::kge
