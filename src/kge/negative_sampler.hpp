// Negative triple generation by uniform corruption (the standard scheme the
// paper starts from): replace either the head or the tail of a true triple
// with a uniformly random entity, optionally rejecting corruptions that
// happen to be known-true triples ("filtered" sampling).
//
// The paper's strategy 5 (hard negative selection) builds on top of this:
// it draws n candidates from here and keeps the ones the model scores
// highest (core/hard_negatives.hpp).
#pragma once

#include "kge/dataset.hpp"
#include "util/rng.hpp"

namespace dynkge::kge {

class NegativeSampler {
 public:
  /// `filter_known` rejects corruptions present in any dataset split (the
  /// dataset must outlive the sampler).
  explicit NegativeSampler(const Dataset& dataset, bool filter_known = true)
      : dataset_(&dataset), filter_known_(filter_known) {}

  /// One corrupted copy of `positive` (head or tail replaced, 50/50).
  /// Defined here so a caller's draw loop inlines it; only the fallback
  /// after kMaxDraws rejected draws is a call.
  Triple corrupt(const Triple& positive, util::Rng& rng) const {
    const auto num_entities =
        static_cast<std::uint64_t>(dataset_->num_entities());
    for (int attempt = 0; attempt < kMaxDraws; ++attempt) {
      Triple candidate = positive;
      const auto replacement =
          static_cast<EntityId>(rng.next_below(num_entities));
      if (rng.next_bernoulli(0.5)) {
        candidate.head = replacement;
      } else {
        candidate.tail = replacement;
      }
      if (candidate == positive) continue;
      if (filter_known_ && dataset_->contains(candidate)) continue;
      return candidate;
    }
    return fallback(positive, rng);
  }

 private:
  /// Bounded retries: on a pathological graph where nearly every
  /// corruption is a true triple, corrupt() falls back to one unfiltered
  /// tail draw rather than looping forever.
  static constexpr int kMaxDraws = 16;

  Triple fallback(const Triple& positive, util::Rng& rng) const;

  const Dataset* dataset_;
  bool filter_known_;
};

}  // namespace dynkge::kge
