#include "kge/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "util/rng.hpp"

namespace dynkge::kge {

using util::Rng;
using util::ZipfSampler;

SyntheticSpec SyntheticSpec::fb15k_mini() {
  SyntheticSpec spec;
  spec.num_entities = 2000;
  spec.num_relations = 160;
  spec.num_triples = 40000;
  spec.num_latent_types = 16;
  spec.seed = 151;
  return spec;
}

SyntheticSpec SyntheticSpec::fb15k_full() {
  SyntheticSpec spec;
  spec.num_entities = 14951;
  spec.num_relations = 1345;
  spec.num_triples = 600000;
  spec.num_latent_types = 40;
  spec.seed = 151;
  return spec;
}

SyntheticSpec SyntheticSpec::fb250k_mini() {
  SyntheticSpec spec;
  spec.num_entities = 12000;
  spec.num_relations = 640;
  spec.num_triples = 200000;
  spec.num_latent_types = 32;
  spec.seed = 251;
  return spec;
}

SyntheticSpec SyntheticSpec::fb250k_full() {
  SyntheticSpec spec;
  spec.num_entities = 240000;
  spec.num_relations = 9280;
  spec.num_triples = 16000000;
  spec.num_latent_types = 64;
  spec.seed = 251;
  return spec;
}

Dataset generate_synthetic(const SyntheticSpec& spec) {
  if (spec.num_entities <= 0 || spec.num_relations <= 0 ||
      spec.num_triples == 0) {
    throw std::invalid_argument("generate_synthetic: empty spec");
  }
  if (spec.num_latent_types <= 0 ||
      spec.num_latent_types > spec.num_entities) {
    throw std::invalid_argument("generate_synthetic: bad num_latent_types");
  }

  Rng rng(util::derive_seed(spec.seed, 0xFACADE));

  const auto num_entities = static_cast<std::size_t>(spec.num_entities);
  const auto num_types = static_cast<std::size_t>(spec.num_latent_types);

  // Popularity-ordered random permutation of entities: position in `perm`
  // is the entity's global popularity rank.
  std::vector<EntityId> perm(num_entities);
  for (std::size_t i = 0; i < num_entities; ++i) {
    perm[i] = static_cast<EntityId>(i);
  }
  util::shuffle(perm, rng);

  // Round-robin over the popularity order so every type gets a mix of hot
  // and cold entities; each type's list stays sorted by popularity.
  std::vector<std::vector<EntityId>> entities_of_type(num_types);
  for (std::size_t i = 0; i < num_entities; ++i) {
    entities_of_type[i % num_types].push_back(perm[i]);
  }
  std::vector<ZipfSampler> type_sampler;
  type_sampler.reserve(num_types);
  for (const auto& group : entities_of_type) {
    type_sampler.emplace_back(group.size(), spec.entity_exponent);
  }

  // Zipfian fact budget per relation.
  std::vector<double> weight(spec.num_relations);
  double weight_sum = 0.0;
  for (std::int32_t r = 0; r < spec.num_relations; ++r) {
    weight[r] = 1.0 / std::pow(static_cast<double>(r + 1),
                               spec.relation_exponent);
    weight_sum += weight[r];
  }

  // Popularity-biased sample of `count` distinct entities from one type.
  const auto sample_subset = [&](std::size_t type, std::size_t count) {
    const auto& group = entities_of_type[type];
    count = std::min(count, group.size());
    std::unordered_set<EntityId> chosen;
    std::vector<EntityId> subset;
    subset.reserve(count);
    std::size_t attempts = 0;
    while (subset.size() < count && attempts < count * 64) {
      ++attempts;
      const EntityId e = group[type_sampler[type].sample(rng)];
      if (chosen.insert(e).second) subset.push_back(e);
    }
    // Fill any shortfall deterministically from the popularity order.
    for (std::size_t i = 0; subset.size() < count && i < group.size(); ++i) {
      if (chosen.insert(group[i]).second) subset.push_back(group[i]);
    }
    return subset;
  };

  // Closed-world construction: relation r is the complete bipartite fact
  // set H_r x T_r. Every generated pair goes into the dataset, so the
  // known-triple filter covers the entire ground truth.
  TripleList triples;
  triples.reserve(spec.num_triples + spec.num_triples / 8);
  const double noise_budget =
      static_cast<double>(spec.num_triples) * spec.noise_fraction;
  const double fact_budget =
      static_cast<double>(spec.num_triples) - noise_budget;

  for (std::int32_t r = 0; r < spec.num_relations; ++r) {
    const double target = fact_budget * weight[r] / weight_sum;
    // Split the pair budget into |H_r| x |T_r| with a random aspect ratio
    // so some relations are one-to-many and others many-to-many.
    const double side = std::sqrt(std::max(1.0, target));
    const double skew = std::exp(rng.next_double(-0.7, 0.7));
    const auto heads_count = static_cast<std::size_t>(
        std::max(1.0, std::round(side * skew)));
    const auto tails_count = static_cast<std::size_t>(
        std::max(1.0, std::round(target / std::max(1.0, side * skew))));

    const std::size_t src_type = rng.next_below(num_types);
    const std::size_t dst_type = rng.next_below(num_types);
    const auto heads = sample_subset(src_type, heads_count);
    const auto tails = sample_subset(dst_type, tails_count);
    for (const EntityId h : heads) {
      for (const EntityId t : tails) {
        triples.push_back(Triple{h, r, t});
      }
    }
  }

  // A sprinkle of idiosyncratic facts (also part of the closed world).
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(triples.size() * 2);
  for (const Triple& t : triples) seen.insert(pack_triple(t));
  const auto noise_triples = static_cast<std::size_t>(noise_budget);
  for (std::size_t i = 0; i < noise_triples; ++i) {
    const auto r =
        static_cast<RelationId>(rng.next_below(spec.num_relations));
    const auto h = static_cast<EntityId>(rng.next_below(num_entities));
    const auto t = static_cast<EntityId>(rng.next_below(num_entities));
    if (seen.insert(pack_triple(h, r, t)).second) {
      triples.push_back(Triple{h, r, t});
    }
  }

  // Shuffle so split assignment is independent of generation order.
  util::shuffle(triples, rng);

  // Split. A triple introducing an unseen entity or relation must go to
  // train so that valid/test never reference untrained embeddings — the
  // same property the original FB15K/FB250K splits have.
  TripleList train, valid, test;
  std::vector<bool> entity_seen(num_entities, false);
  std::vector<bool> relation_seen(spec.num_relations, false);
  for (const Triple& t : triples) {
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
    if (u < spec.valid_fraction) {
      valid.push_back(t);
    } else if (u < spec.valid_fraction + spec.test_fraction) {
      test.push_back(t);
    } else {
      train.push_back(t);
    }
  }

  return Dataset(spec.num_entities, spec.num_relations, std::move(train),
                 std::move(valid), std::move(test));
}

}  // namespace dynkge::kge
