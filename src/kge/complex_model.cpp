#include "kge/complex_model.hpp"

#include <cmath>
#include <vector>

namespace dynkge::kge {

void ComplExModel::init(util::Rng& rng) {
  // Xavier-style uniform: keeps initial scores O(1) for any rank.
  const float scale =
      init_scale_ * 6.0f / std::sqrt(static_cast<float>(2 * rank_));
  entities_.init_uniform(rng, scale);
  relations_.init_uniform(rng, scale);
}

void ComplExModel::score_tails_block(EntityId h, RelationId r, EntityId begin,
                                     std::span<double> out) const {
  const auto eh = entities_.row(h);
  const auto er = relations_.row(r);
  const std::int32_t k = rank_;
  // Compose c = E_h * E_r (complex product); then phi(t) = Re(<c, conj(t)>).
  std::vector<float> c_re(k), c_im(k);
  for (std::int32_t i = 0; i < k; ++i) {
    c_re[i] = eh[i] * er[i] - eh[k + i] * er[k + i];
    c_im[i] = eh[k + i] * er[i] + eh[i] * er[k + i];
  }
  for (std::size_t j = 0; j < out.size(); ++j) {
    const auto et = entities_.row(begin + static_cast<EntityId>(j));
    double acc = 0.0;
    for (std::int32_t i = 0; i < k; ++i) {
      acc += static_cast<double>(c_re[i]) * et[i] +
             static_cast<double>(c_im[i]) * et[k + i];
    }
    out[j] = acc;
  }
}

void ComplExModel::score_heads_block(RelationId r, EntityId t, EntityId begin,
                                     std::span<double> out) const {
  const auto er = relations_.row(r);
  const auto et = entities_.row(t);
  const std::int32_t k = rank_;
  // phi as a function of h is linear: phi = <d_re, h_re> + <d_im, h_im>.
  std::vector<float> d_re(k), d_im(k);
  for (std::int32_t i = 0; i < k; ++i) {
    d_re[i] = er[i] * et[i] + er[k + i] * et[k + i];
    d_im[i] = er[i] * et[k + i] - er[k + i] * et[i];
  }
  for (std::size_t j = 0; j < out.size(); ++j) {
    const auto eh = entities_.row(begin + static_cast<EntityId>(j));
    double acc = 0.0;
    for (std::int32_t i = 0; i < k; ++i) {
      acc += static_cast<double>(d_re[i]) * eh[i] +
             static_cast<double>(d_im[i]) * eh[k + i];
    }
    out[j] = acc;
  }
}

}  // namespace dynkge::kge
