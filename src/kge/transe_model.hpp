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
              std::int32_t rank, float gamma = kDefaultMargin)
      : KgeModel(num_entities, num_relations, rank, rank),
        rank_(rank),
        gamma_(gamma) {}

  std::string name() const override { return "TransE"; }
  ModelSpec spec() const override { return {"transe", rank_, gamma_}; }

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
  float gamma_;
};

}  // namespace dynkge::kge
