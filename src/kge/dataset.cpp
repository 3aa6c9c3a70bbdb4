#include "kge/dataset.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

namespace dynkge::kge {
namespace {

void validate_split(std::span<const Triple> triples, std::int32_t num_entities,
                    std::int32_t num_relations, const char* split) {
  for (const Triple& t : triples) {
    if (t.head < 0 || t.head >= num_entities || t.tail < 0 ||
        t.tail >= num_entities) {
      throw std::invalid_argument(std::string("Dataset: entity id out of "
                                              "range in split ") +
                                  split);
    }
    if (t.relation < 0 || t.relation >= num_relations) {
      throw std::invalid_argument(std::string("Dataset: relation id out of "
                                              "range in split ") +
                                  split);
    }
  }
}

}  // namespace

Dataset::Dataset(std::int32_t num_entities, std::int32_t num_relations,
                 TripleList train, TripleList valid, TripleList test)
    : num_entities_(num_entities),
      num_relations_(num_relations),
      train_(std::move(train)),
      valid_(std::move(valid)),
      test_(std::move(test)) {
  if (num_entities <= 0 || num_relations <= 0) {
    throw std::invalid_argument("Dataset: entity/relation counts must be > 0");
  }
  if (num_entities_ >= (1 << 21) || num_relations_ >= (1 << 21)) {
    throw std::invalid_argument("Dataset: id space exceeds 21-bit packing");
  }
  validate_split(train_, num_entities_, num_relations_, "train");
  validate_split(valid_, num_entities_, num_relations_, "valid");
  validate_split(test_, num_entities_, num_relations_, "test");

  const std::size_t capacity =
      std::bit_ceil(std::max<std::size_t>(2, 2 * num_facts()));
  known_.assign(capacity, kEmptySlot);
  slot_shift_ = 64 - std::countr_zero(capacity);
  for (const auto* split : {&train_, &valid_, &test_}) {
    for (const Triple& t : *split) {
      const std::uint64_t key = pack_triple(t);
      known_[find_slot(key)] = key;
    }
  }
}

std::string Dataset::summary(const std::string& name) const {
  std::ostringstream os;
  os << name << ": " << num_entities_ << " entities, " << num_relations_
     << " relations, " << train_.size() << " train / " << valid_.size()
     << " valid / " << test_.size() << " test triples";
  return os.str();
}

}  // namespace dynkge::kge
