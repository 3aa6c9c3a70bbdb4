#include "kge/rotate_model.hpp"

#include <cmath>

namespace dynkge::kge {
namespace {

constexpr float kPi = 3.14159265358979323846f;

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

}  // namespace dynkge::kge
