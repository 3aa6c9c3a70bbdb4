#include "kge/complex_model.hpp"

#include <cmath>

namespace dynkge::kge {

void ComplExModel::init(util::Rng& rng) {
  // Xavier-style uniform: keeps initial scores O(1) for any rank.
  const float scale =
      init_scale_ * 6.0f / std::sqrt(static_cast<float>(2 * rank_));
  entities_.init_uniform(rng, scale);
  relations_.init_uniform(rng, scale);
}

}  // namespace dynkge::kge
