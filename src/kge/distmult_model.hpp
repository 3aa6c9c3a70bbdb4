// DistMult (Yang et al., 2015): the real-valued special case of ComplEx.
//
//   phi(h,r,t) = sum_k E_h[k] * R_r[k] * E_t[k]
//
// Included as one of the paper's future-work targets ("explore our methods
// with other KGE models"); all five strategies except none are model
// specific, so DistMult runs through the identical trainer.
#pragma once

#include "kge/model.hpp"

namespace dynkge::kge {

class DistMultModel final : public KgeModel {
 public:
  DistMultModel(std::int32_t num_entities, std::int32_t num_relations,
                std::int32_t rank)
      : KgeModel(num_entities, num_relations, rank, rank), rank_(rank) {}

  std::string name() const override { return "DistMult"; }
  std::int32_t rank() const { return rank_; }

  void init(util::Rng& rng) override;

  double score(EntityId h, RelationId r, EntityId t) const override;

  void accumulate_gradients(EntityId h, RelationId r, EntityId t, float coeff,
                            ModelGrads& grads) const override;

  // Blocked training kernels (src/kge/block_kernels.cpp).
  void score_triples_block(std::span<const Triple> triples,
                           std::span<double> out) const override;
  void accumulate_gradients_block(std::span<const GradWork> work,
                                  ModelGrads& grads) const override;

  void score_tails_block(EntityId h, RelationId r, EntityId begin,
                         std::span<double> out) const override;
  void score_heads_block(RelationId r, EntityId t, EntityId begin,
                         std::span<double> out) const override;

 private:
  std::int32_t rank_;
};

}  // namespace dynkge::kge
