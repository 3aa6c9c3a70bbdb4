// KGE model interface.
//
// A model owns two embedding matrices (entities, relations), defines the
// triple scoring function phi(h, r, t), and knows how to accumulate the
// analytic gradient of phi with respect to the three touched rows. Loss
// composition (logistic loss over positive/negative labels) lives in
// loss.hpp; optimization in adam.hpp; distribution in core/.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "kge/embedding.hpp"
#include "kge/triple.hpp"
#include "util/rng.hpp"

namespace dynkge::kge {

/// Gradient rows for both parameter matrices, accumulated over a batch.
struct ModelGrads {
  SparseGrad entity;
  SparseGrad relation;

  ModelGrads() = default;
  ModelGrads(std::int32_t entity_width, std::int32_t relation_width)
      : entity(entity_width), relation(relation_width) {}

  void clear() {
    entity.clear();
    relation.clear();
  }
};

/// One gradient-accumulation work item of a blocked batch: the triple, the
/// upstream loss derivative, and the three *pre-resolved* gradient rows
/// (direct arena pointers, so the per-example hash lookups of the scalar
/// path disappear). The rows must already exist and stay stable for the
/// duration of the block call; gh and gt alias when h == t.
struct GradWork {
  EntityId h = 0;
  RelationId r = 0;
  EntityId t = 0;
  float coeff = 0.0f;  ///< dLoss/dphi, already averaged over the batch
  float* gh = nullptr;
  float* gr = nullptr;
  float* gt = nullptr;
};

class KgeModel {
 public:
  KgeModel(std::int32_t num_entities, std::int32_t num_relations,
           std::int32_t entity_width, std::int32_t relation_width)
      : entities_(num_entities, entity_width),
        relations_(num_relations, relation_width) {}
  virtual ~KgeModel() = default;

  KgeModel(const KgeModel&) = delete;
  KgeModel& operator=(const KgeModel&) = delete;

  virtual std::string name() const = 0;

  /// Initialize both matrices from the given stream (deterministic).
  virtual void init(util::Rng& rng) = 0;

  /// phi(h, r, t): higher means "more plausible".
  virtual double score(EntityId h, RelationId r, EntityId t) const = 0;

  /// grads += coeff * d phi / d {E[h], R[r], E[t]}.
  /// `coeff` is the upstream derivative dLoss/dphi.
  virtual void accumulate_gradients(EntityId h, RelationId r, EntityId t,
                                    float coeff, ModelGrads& grads) const = 0;

  /// out[i] = phi(triples[i]) — the training-side blocked scoring kernel.
  /// The default loops over score(); the built-in models override with
  /// ILP forms (four independent accumulation chains) that are
  /// bit-identical per triple to score(). Scoring is side-effect free and
  /// consumes no RNG, so callers may batch freely without changing the
  /// determinism contract.
  virtual void score_triples_block(std::span<const Triple> triples,
                                   std::span<double> out) const;

  /// Accumulate gradients for a block of work items, processed strictly in
  /// order (items may share rows). Overrides must keep each item's
  /// per-element arithmetic and per-memory-location accumulation order
  /// identical to accumulate_gradients; when w.gh == w.gt (h == t) the
  /// scalar statement interleaving must be preserved exactly. `grads` is
  /// the accumulator the work rows point into (used by the default, which
  /// falls back to accumulate_gradients per item).
  virtual void accumulate_gradients_block(std::span<const GradWork> work,
                                          ModelGrads& grads) const;

  /// out[i] = phi(h, r, begin + i) for i in [0, out.size()); requires
  /// begin + out.size() <= num_entities(). The blocked form is the virtual
  /// hook so implementations can precompose h*r once per call (making the
  /// per-candidate cost one dot product) while callers choose the range —
  /// ranking evaluation scans all entities, the serving layer hands
  /// disjoint blocks to worker threads.
  virtual void score_tails_block(EntityId h, RelationId r, EntityId begin,
                                 std::span<double> out) const;

  /// out[i] = phi(begin + i, r, t) for i in [0, out.size()).
  virtual void score_heads_block(RelationId r, EntityId t, EntityId begin,
                                 std::span<double> out) const;

  /// out[e] = phi(h, r, e) for every entity e.
  void score_all_tails(EntityId h, RelationId r, std::span<double> out) const {
    score_tails_block(h, r, 0, out);
  }

  /// out[e] = phi(e, r, t) for every entity e.
  void score_all_heads(RelationId r, EntityId t, std::span<double> out) const {
    score_heads_block(r, t, 0, out);
  }

  EmbeddingMatrix& entities() { return entities_; }
  const EmbeddingMatrix& entities() const { return entities_; }
  EmbeddingMatrix& relations() { return relations_; }
  const EmbeddingMatrix& relations() const { return relations_; }

  std::int32_t num_entities() const { return entities_.rows(); }
  std::int32_t num_relations() const { return relations_.rows(); }

  /// Fresh gradient accumulator with matching row widths.
  ModelGrads make_grads() const {
    return ModelGrads(entities_.width(), relations_.width());
  }

  /// Multiplier on each model's default initialization scale. Values < 1
  /// start embeddings (and hence scores) closer to zero, which avoids the
  /// crush-then-rebuild transient that hard-negative mining provokes when
  /// initial scores are large. Call before init().
  void set_init_scale(float multiplier) { init_scale_ = multiplier; }
  float init_scale() const { return init_scale_; }

 protected:
  EmbeddingMatrix entities_;
  EmbeddingMatrix relations_;
  float init_scale_ = 1.0f;
};

}  // namespace dynkge::kge
