#include "kge/negative_sampler.hpp"

#include <stdexcept>

namespace dynkge::kge {

Triple NegativeSampler::corrupt(const Triple& positive,
                                util::Rng& rng) const {
  const auto num_entities =
      static_cast<std::uint64_t>(dataset_->num_entities());
  // Bounded retries: on a pathological graph where nearly every corruption
  // is a true triple, fall back to one unfiltered tail draw rather than
  // looping forever.
  for (int attempt = 0; attempt < 16; ++attempt) {
    Triple candidate = positive;
    const auto replacement = static_cast<EntityId>(rng.next_below(num_entities));
    if (rng.next_bernoulli(0.5)) {
      candidate.head = replacement;
    } else {
      candidate.tail = replacement;
    }
    if (candidate == positive) continue;
    if (filter_known_ && dataset_->contains(candidate)) continue;
    return candidate;
  }
  // The fallback tail comes from the n - 1 entities other than the
  // positive's, so the result is never the positive itself (it may still
  // be a known triple).
  if (num_entities < 2) {
    throw std::invalid_argument(
        "NegativeSampler: no corruption exists with fewer than 2 entities");
  }
  Triple fallback = positive;
  auto tail = static_cast<EntityId>(rng.next_below(num_entities - 1));
  if (tail >= positive.tail) ++tail;
  fallback.tail = tail;
  return fallback;
}

void NegativeSampler::corrupt_n(const Triple& positive, int n, util::Rng& rng,
                                TripleList& out) const {
  for (int i = 0; i < n; ++i) out.push_back(corrupt(positive, rng));
}

}  // namespace dynkge::kge
