#include "kge/negative_sampler.hpp"

#include <stdexcept>

namespace dynkge::kge {

Triple NegativeSampler::fallback(const Triple& positive,
                                 util::Rng& rng) const {
  // The fallback tail comes from the n - 1 entities other than the
  // positive's, so the result is never the positive itself (it may still
  // be a known triple).
  const auto num_entities =
      static_cast<std::uint64_t>(dataset_->num_entities());
  if (num_entities < 2) {
    throw std::invalid_argument(
        "NegativeSampler: no corruption exists with fewer than 2 entities");
  }
  Triple negative = positive;
  auto tail = static_cast<EntityId>(rng.next_below(num_entities - 1));
  if (tail >= positive.tail) ++tail;
  negative.tail = tail;
  return negative;
}

}  // namespace dynkge::kge
