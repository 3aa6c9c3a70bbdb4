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

}  // namespace dynkge::kge
