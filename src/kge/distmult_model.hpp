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
  ModelSpec spec() const override { return {"distmult", rank_, 0.0f}; }

  void init(util::Rng& rng) override;

  // Score, gradient and entity-scan kernels
  // (src/kge/block_kernels.cpp).
  void score_triples_block(std::span<const Triple> triples,
                           std::span<double> out) const override;
  void accumulate_gradients_block(
      std::span<const GradWork> work) const override;
  void score_entities_block(std::span<const EntityQuery> queries,
                            EntityId begin, std::size_t count,
                            std::span<double> out) const override;

 private:
  std::int32_t rank_;
};

}  // namespace dynkge::kge
