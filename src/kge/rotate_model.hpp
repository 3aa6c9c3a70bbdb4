// RotatE (Sun et al., ICLR 2019): relations as rotations in the complex
// plane. Included as a future-work model ("explore our methods with other
// KGE models") and as the stress test for mixed parameter shapes: entity
// rows store `rank` complex numbers (width 2*rank) while relation rows
// store only `rank` phase angles (width rank) — the relation gradient
// matrix relation partition protects is genuinely different here.
//
//   phi(h,r,t) = gamma - sum_k | h_k * e^{i theta_{r,k}} - t_k |
//
// with |.| the complex modulus (an L1 norm over rotated differences).
#pragma once

#include "kge/model.hpp"

namespace dynkge::kge {

class RotatEModel final : public KgeModel {
 public:
  RotatEModel(std::int32_t num_entities, std::int32_t num_relations,
              std::int32_t rank, float gamma = kDefaultMargin)
      : KgeModel(num_entities, num_relations, 2 * rank, rank),
        rank_(rank),
        gamma_(gamma) {}

  std::string name() const override { return "RotatE"; }
  ModelSpec spec() const override { return {"rotate", rank_, gamma_}; }

  /// Keeps the modulus gradient finite at zero distance. Shared by the
  /// triple and entity-scan kernels.
  static constexpr double kEpsilon = 1e-12;

  void init(util::Rng& rng) override;

  // Score, gradient and entity-scan kernels (src/kge/block_kernels.cpp).
  // Batching lets the relation phases' cos/sin pairs be computed once per
  // unique relation per block instead of once per triple.
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
