#include "kge/distmult_model.hpp"

#include <cmath>
#include <vector>

namespace dynkge::kge {

void DistMultModel::init(util::Rng& rng) {
  const float scale =
      init_scale_ * 6.0f / std::sqrt(static_cast<float>(rank_));
  entities_.init_uniform(rng, scale);
  relations_.init_uniform(rng, scale);
}

void DistMultModel::score_tails_block(EntityId h, RelationId r, EntityId begin,
                                      std::span<double> out) const {
  const auto eh = entities_.row(h);
  const auto er = relations_.row(r);
  std::vector<float> composed(rank_);
  for (std::int32_t i = 0; i < rank_; ++i) composed[i] = eh[i] * er[i];
  for (std::size_t j = 0; j < out.size(); ++j) {
    const auto et = entities_.row(begin + static_cast<EntityId>(j));
    double acc = 0.0;
    for (std::int32_t i = 0; i < rank_; ++i) {
      acc += static_cast<double>(composed[i]) * et[i];
    }
    out[j] = acc;
  }
}

void DistMultModel::score_heads_block(RelationId r, EntityId t, EntityId begin,
                                      std::span<double> out) const {
  // DistMult is symmetric in h and t.
  score_tails_block(t, r, begin, out);
}

}  // namespace dynkge::kge
