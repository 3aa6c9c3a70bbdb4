// A knowledge-graph dataset: train/valid/test triple splits plus the
// "filter" index of all known-true triples used by filtered MRR evaluation
// and by negative samplers that must avoid accidentally sampling a true
// triple.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "kge/triple.hpp"

namespace dynkge::kge {

class Dataset {
 public:
  Dataset() = default;
  Dataset(std::int32_t num_entities, std::int32_t num_relations,
          TripleList train, TripleList valid, TripleList test);

  std::int32_t num_entities() const { return num_entities_; }
  std::int32_t num_relations() const { return num_relations_; }

  std::span<const Triple> train() const { return train_; }
  std::span<const Triple> valid() const { return valid_; }
  std::span<const Triple> test() const { return test_; }

  std::size_t num_facts() const {
    return train_.size() + valid_.size() + test_.size();
  }

  /// True if {h, r, t} appears in any split (the filtered-evaluation test).
  bool contains(EntityId head, RelationId relation, EntityId tail) const {
    if (known_.empty()) return false;  // default-constructed
    const std::uint64_t key = pack_triple(head, relation, tail);
    return known_[find_slot(key)] == key;
  }
  bool contains(const Triple& t) const {
    return contains(t.head, t.relation, t.tail);
  }

  /// Human-readable one-line summary used by examples and logs.
  std::string summary(const std::string& name) const;

 private:
  std::int32_t num_entities_ = 0;
  std::int32_t num_relations_ = 0;
  TripleList train_;
  TripleList valid_;
  TripleList test_;

  /// A free slot of known_: pack_triple never sets bit 63.
  static constexpr std::uint64_t kEmptySlot = ~0ULL;

  /// The slot holding `key`, or the empty slot that ends its probe. The
  /// probe starts where multiplicative (Fibonacci) hashing puts it: the
  /// top log2(capacity) bits of key * 2^64 / phi.
  std::size_t find_slot(std::uint64_t key) const {
    const std::size_t mask = known_.size() - 1;
    auto slot = static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                         slot_shift_);
    while (known_[slot] != key && known_[slot] != kEmptySlot) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  /// Every split's packed triples in one open-addressing table with linear
  /// probing. The capacity is a power of two, at least 2 and at least twice
  /// the fact count, so the load stays <= 0.5 and every probe ends at an
  /// empty slot. Empty only when default-constructed.
  std::vector<std::uint64_t> known_;
  int slot_shift_ = 63;  // 64 - log2(known_.size())
};

}  // namespace dynkge::kge
