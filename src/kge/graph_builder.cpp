#include "kge/graph_builder.hpp"

#include <stdexcept>

namespace dynkge::kge {

Dataset GraphBuilder::dataset_with_tail_holdout(std::size_t holdout) const {
  if (holdout >= facts_.size()) {
    throw std::invalid_argument(
        "GraphBuilder: holdout must be smaller than the fact count");
  }
  TripleList train(facts_.begin(), facts_.end() - holdout);
  TripleList test(facts_.end() - holdout, facts_.end());
  TripleList valid = test;
  return Dataset(static_cast<std::int32_t>(entities_.size()),
                 static_cast<std::int32_t>(relations_.size()),
                 std::move(train), std::move(valid), std::move(test));
}

Dataset GraphBuilder::dataset_with_random_split(double valid_fraction,
                                                double test_fraction,
                                                std::uint64_t seed) const {
  if (facts_.empty()) {
    throw std::invalid_argument("GraphBuilder: no facts recorded");
  }
  TripleList shuffled = facts_;
  util::Rng rng(util::derive_seed(seed, 0x6B));
  util::shuffle(shuffled, rng);

  TripleList train, valid, test;
  std::vector<bool> entity_seen(entities_.size(), false);
  std::vector<bool> relation_seen(relations_.size(), false);
  for (const Triple& t : shuffled) {
    const bool fresh = !entity_seen[t.head] || !entity_seen[t.tail] ||
                       !relation_seen[t.relation];
    entity_seen[t.head] = true;
    entity_seen[t.tail] = true;
    relation_seen[t.relation] = true;
    if (fresh) {
      train.push_back(t);
      continue;
    }
    const double u = rng.next_double();
    if (u < valid_fraction) {
      valid.push_back(t);
    } else if (u < valid_fraction + test_fraction) {
      test.push_back(t);
    } else {
      train.push_back(t);
    }
  }
  if (valid.empty()) valid = test;
  return Dataset(static_cast<std::int32_t>(entities_.size()),
                 static_cast<std::int32_t>(relations_.size()),
                 std::move(train), std::move(valid), std::move(test));
}

}  // namespace dynkge::kge
