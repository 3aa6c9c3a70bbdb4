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
  Triple corrupt(const Triple& positive, util::Rng& rng) const;

  /// Append `n` corrupted copies of `positive` to `out`.
  void corrupt_n(const Triple& positive, int n, util::Rng& rng,
                 TripleList& out) const;

 private:
  const Dataset* dataset_;
  bool filter_known_;
};

}  // namespace dynkge::kge
