#include "kge/distmult_model.hpp"

#include <cmath>

namespace dynkge::kge {

void DistMultModel::init(util::Rng& rng) {
  const float scale =
      init_scale_ * 6.0f / std::sqrt(static_cast<float>(rank_));
  entities_.init_uniform(rng, scale);
  relations_.init_uniform(rng, scale);
}

}  // namespace dynkge::kge
