// KGE model interface.
//
// A model owns two embedding matrices (entities, relations), defines the
// triple scoring function phi(h, r, t), and knows how to accumulate the
// analytic gradient of phi with respect to the three touched rows. Each
// built-in model writes its score term, gradient update and entity-scan
// term once, in the kernels of block_kernels.cpp; the one-triple score()
// and accumulate_gradients() run those kernels on a block of one, and the
// one-query score_*_block / score_all_* run the entity scan on a query of
// one. Loss composition (logistic loss over positive/negative labels)
// lives in loss.hpp; optimization in adam.hpp; distribution in core/.
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
/// (direct arena pointers, resolved once per block). The rows must already
/// exist and stay stable for the duration of the block call; gh and gt
/// alias when h == t.
struct GradWork {
  EntityId h = 0;
  RelationId r = 0;
  EntityId t = 0;
  float coeff = 0.0f;  ///< dLoss/dphi, already averaged over the batch
  float* gh = nullptr;
  float* gr = nullptr;
  float* gt = nullptr;
};

/// The open side of an entity-scan query: the side each candidate fills.
enum class Direction : std::uint8_t {
  kTail,  ///< (h, r, ?) — the query's entity is the head
  kHead,  ///< (?, r, t) — the query's entity is the tail
};

/// One query of an entity scan: the fixed entity and the relation.
struct EntityQuery {
  Direction direction = Direction::kTail;
  EntityId entity = 0;
  RelationId relation = 0;
};

/// Queries an entity scan scores side by side, each candidate row read
/// once for all of them; callers that batch queries fill whole tiles.
inline constexpr std::size_t kScanTile = 8;

/// Score margin TransE and RotatE use unless told otherwise.
inline constexpr float kDefaultMargin = 12.0f;

/// Everything kge::make_model needs to build another model of the same
/// kind and shape: the factory name ("complex", "distmult", "transe",
/// "rotate"), the rank, and the score margin (gamma for TransE/RotatE, 0
/// for the models without one).
struct ModelSpec {
  std::string name;
  std::int32_t rank = 0;
  float margin = 0.0f;
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

  /// How this model was constructed (see ModelSpec).
  virtual ModelSpec spec() const = 0;

  /// Initialize both matrices from the given stream (deterministic).
  virtual void init(util::Rng& rng) = 0;

  /// phi(h, r, t): higher means "more plausible". A block of one through
  /// score_triples_block.
  double score(EntityId h, RelationId r, EntityId t) const;

  /// grads += coeff * d phi / d {E[h], R[r], E[t]}, where `coeff` is the
  /// upstream derivative dLoss/dphi. Creates the rows h, t, then r, as
  /// core::forward_backward does, and runs accumulate_gradients_block on
  /// the one item.
  void accumulate_gradients(EntityId h, RelationId r, EntityId t, float coeff,
                            ModelGrads& grads) const;

  /// out[i] = phi(triples[i]). A score is the left-to-right double sum of
  /// the model's per-element terms from 0.0, so its bytes do not depend on
  /// the block it is scored in. Scoring is side-effect free and consumes
  /// no RNG, so callers may batch freely without changing the determinism
  /// contract.
  virtual void score_triples_block(std::span<const Triple> triples,
                                   std::span<double> out) const = 0;

  /// Accumulate gradients for a block of work items, processed strictly in
  /// order (items may share rows). Each item adds to each gradient element
  /// in the statement order of the model's per-element update; when
  /// w.gh == w.gt (h == t) that order is load-bearing.
  virtual void accumulate_gradients_block(
      std::span<const GradWork> work) const = 0;

  /// The entity scan: out[q * count + j] = phi of queries[q] with
  /// candidate entity begin + j on its open side, for j in [0, count);
  /// requires begin + count <= num_entities() and out.size() >=
  /// queries.size() * count. The model composes each query (h∘r, or r∘t
  /// for a head query) once per call, so a candidate costs one pass over
  /// its row, and the call reads each candidate row once per kScanTile
  /// queries. A score is the left-to-right double sum of the model's
  /// per-candidate terms from 0.0, so its bytes depend neither on the
  /// range nor on the other queries of the call. Callers choose the
  /// range: ranking evaluation scans all entities for a tile of queries,
  /// the serving layer hands disjoint blocks to worker threads.
  virtual void score_entities_block(std::span<const EntityQuery> queries,
                                    EntityId begin, std::size_t count,
                                    std::span<double> out) const = 0;

  /// out[i] = phi(h, r, begin + i) for i in [0, out.size()): the entity
  /// scan of one tail query.
  void score_tails_block(EntityId h, RelationId r, EntityId begin,
                         std::span<double> out) const {
    const EntityQuery query{Direction::kTail, h, r};
    score_entities_block({&query, 1}, begin, out.size(), out);
  }

  /// out[i] = phi(begin + i, r, t) for i in [0, out.size()).
  void score_heads_block(RelationId r, EntityId t, EntityId begin,
                         std::span<double> out) const {
    const EntityQuery query{Direction::kHead, t, r};
    score_entities_block({&query, 1}, begin, out.size(), out);
  }

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
