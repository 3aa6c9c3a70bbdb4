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
              std::int32_t rank, float gamma = 12.0f)
      : KgeModel(num_entities, num_relations, 2 * rank, rank),
        rank_(rank),
        gamma_(gamma) {}

  std::string name() const override { return "RotatE"; }
  std::int32_t rank() const { return rank_; }
  float gamma() const { return gamma_; }

  /// Keeps the modulus gradient finite at zero distance. Shared by the
  /// scalar path and the blocked kernels — the distance arithmetic must be
  /// bit-identical between them.
  static constexpr double kEpsilon = 1e-12;

  void init(util::Rng& rng) override;

  double score(EntityId h, RelationId r, EntityId t) const override;

  void accumulate_gradients(EntityId h, RelationId r, EntityId t, float coeff,
                            ModelGrads& grads) const override;

  // Blocked training kernels (src/kge/block_kernels.cpp). Batching lets
  // the relation phases' cos/sin pairs be computed once per unique
  // relation per block instead of once per triple.
  void score_triples_block(std::span<const Triple> triples,
                           std::span<double> out) const override;
  void accumulate_gradients_block(std::span<const GradWork> work,
                                  ModelGrads& grads) const override;

  void score_tails_block(EntityId h, RelationId r, EntityId begin,
                         std::span<double> out) const override;

 private:
  std::int32_t rank_;
  float gamma_;
};

}  // namespace dynkge::kge
