#include "kge/transe_model.hpp"

#include <cmath>

namespace dynkge::kge {

void TransEModel::init(util::Rng& rng) {
  const float scale = init_scale_ * gamma_ / static_cast<float>(rank_) * 2.0f;
  entities_.init_uniform(rng, scale);
  relations_.init_uniform(rng, scale);
}

}  // namespace dynkge::kge
