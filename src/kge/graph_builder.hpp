// Incremental construction of a named knowledge graph.
//
// The numeric Dataset API wants dense integer ids; applications have
// strings. GraphBuilder interns entity/relation names, accumulates facts,
// and produces a Dataset with a chosen holdout split — the ergonomic path
// from "my domain facts" to "trainable KG".
#pragma once

#include <map>
#include <string>
#include <vector>

#include "kge/dataset.hpp"

namespace dynkge::kge {

class GraphBuilder {
 public:
  /// Record one fact; unseen entity/relation names are interned.
  void fact(const std::string& head, const std::string& relation,
            const std::string& tail) {
    facts_.push_back(
        Triple{entity(head), this->relation(relation), entity(tail)});
  }

  /// Id for a name (interning it if new).
  EntityId entity(const std::string& name) {
    const auto [it, inserted] =
        entity_ids_.emplace(name, static_cast<EntityId>(entities_.size()));
    if (inserted) entities_.push_back(name);
    return it->second;
  }
  RelationId relation(const std::string& name) {
    const auto [it, inserted] = relation_ids_.emplace(
        name, static_cast<RelationId>(relations_.size()));
    if (inserted) relations_.push_back(name);
    return it->second;
  }

  const std::string& entity_name(EntityId id) const { return entities_[id]; }
  const std::string& relation_name(RelationId id) const {
    return relations_[id];
  }

  std::size_t num_entities() const { return entities_.size(); }
  std::size_t num_relations() const { return relations_.size(); }
  std::size_t num_facts() const { return facts_.size(); }

  /// Build a Dataset whose test (and, reused, validation) split is the
  /// last `holdout` recorded facts. Throws if holdout >= facts.
  Dataset dataset_with_tail_holdout(std::size_t holdout) const;

 private:
  std::map<std::string, EntityId> entity_ids_;
  std::map<std::string, RelationId> relation_ids_;
  std::vector<std::string> entities_;
  std::vector<std::string> relations_;
  TripleList facts_;
};

}  // namespace dynkge::kge
