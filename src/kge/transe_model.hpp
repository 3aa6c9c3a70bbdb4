// TransE (Bordes et al., 2013) with the DGL-KE-style shifted score so it
// trains under the same logistic loss as ComplEx:
//
//   phi(h,r,t) = gamma - || E_h + R_r - E_t ||_1
//
// The margin constant gamma keeps true triples at positive scores; the
// original max-margin formulation is recovered by pairing positive and
// negative logistic terms. Included as a future-work model (the paper's
// predecessor work, Gupta & Vadhiyar 2019, trained TransE at scale).
#pragma once

#include "kge/model.hpp"

namespace dynkge::kge {

class TransEModel final : public KgeModel {
 public:
  TransEModel(std::int32_t num_entities, std::int32_t num_relations,
              std::int32_t rank, float gamma = 12.0f)
      : KgeModel(num_entities, num_relations, rank, rank),
        rank_(rank),
        gamma_(gamma) {}

  std::string name() const override { return "TransE"; }
  std::int32_t rank() const { return rank_; }
  float gamma() const { return gamma_; }

  void init(util::Rng& rng) override;

  double score(EntityId h, RelationId r, EntityId t) const override;

  void accumulate_gradients(EntityId h, RelationId r, EntityId t, float coeff,
                            ModelGrads& grads) const override;

  // Blocked training kernels (src/kge/block_kernels.cpp).
  void score_triples_block(std::span<const Triple> triples,
                           std::span<double> out) const override;
  void accumulate_gradients_block(std::span<const GradWork> work,
                                  ModelGrads& grads) const override;

 private:
  std::int32_t rank_;
  float gamma_;
};

}  // namespace dynkge::kge
