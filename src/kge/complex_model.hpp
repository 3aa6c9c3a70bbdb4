// ComplEx (Trouillon et al., ICML 2016) — the model the paper trains.
//
// Entities and relations are complex vectors of `rank` components; the
// score is the real part of the trilinear product <E_h, E_r, conj(E_t)>:
//
//   phi(h,r,t) = < Re(r), Re(h), Re(t) >
//              + < Re(r), Im(h), Im(t) >
//              + < Im(r), Re(h), Im(t) >
//              - < Im(r), Im(h), Re(t) >      (paper eq. 1)
//
// Storage: each row holds [re_0..re_{rank-1}, im_0..im_{rank-1}], i.e.
// width = 2 * rank floats.
#pragma once

#include "kge/model.hpp"

namespace dynkge::kge {

class ComplExModel final : public KgeModel {
 public:
  ComplExModel(std::int32_t num_entities, std::int32_t num_relations,
               std::int32_t rank)
      : KgeModel(num_entities, num_relations, 2 * rank, 2 * rank),
        rank_(rank) {}

  std::string name() const override { return "ComplEx"; }
  std::int32_t rank() const { return rank_; }

  void init(util::Rng& rng) override;

  double score(EntityId h, RelationId r, EntityId t) const override;

  void accumulate_gradients(EntityId h, RelationId r, EntityId t, float coeff,
                            ModelGrads& grads) const override;

  // Blocked training kernels (src/kge/block_kernels.cpp): bit-identical
  // to the per-triple kernels above, vectorizable loop shapes.
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
