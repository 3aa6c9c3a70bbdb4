#include "kge/negative_sampler.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "kge/synthetic.hpp"

namespace dynkge::kge {
namespace {

Dataset tiny_dataset() {
  SyntheticSpec spec;
  spec.num_entities = 50;
  spec.num_relations = 5;
  spec.num_triples = 400;
  spec.num_latent_types = 4;
  spec.seed = 9;
  return generate_synthetic(spec);
}

TEST(NegativeSampler, CorruptionDiffersFromPositive) {
  const Dataset ds = tiny_dataset();
  const NegativeSampler sampler(ds);
  util::Rng rng(1);
  for (const Triple& pos : ds.train().subspan(0, 50)) {
    const Triple neg = sampler.corrupt(pos, rng);
    EXPECT_NE(neg, pos);
  }
}

TEST(NegativeSampler, CorruptionKeepsRelation) {
  const Dataset ds = tiny_dataset();
  const NegativeSampler sampler(ds);
  util::Rng rng(2);
  for (const Triple& pos : ds.train().subspan(0, 50)) {
    const Triple neg = sampler.corrupt(pos, rng);
    EXPECT_EQ(neg.relation, pos.relation);
  }
}

TEST(NegativeSampler, CorruptionChangesExactlyOneSide) {
  const Dataset ds = tiny_dataset();
  const NegativeSampler sampler(ds);
  util::Rng rng(3);
  for (const Triple& pos : ds.train().subspan(0, 100)) {
    const Triple neg = sampler.corrupt(pos, rng);
    const bool head_changed = neg.head != pos.head;
    const bool tail_changed = neg.tail != pos.tail;
    EXPECT_TRUE(head_changed != tail_changed)
        << "exactly one of head/tail must change";
  }
}

TEST(NegativeSampler, FilteredAvoidsKnownTriples) {
  const Dataset ds = tiny_dataset();
  const NegativeSampler sampler(ds, /*filter_known=*/true);
  util::Rng rng(4);
  int known_hits = 0;
  for (const Triple& pos : ds.train().subspan(0, 200)) {
    known_hits += ds.contains(sampler.corrupt(pos, rng));
  }
  // The bounded-retry fallback can rarely emit a known triple; near-zero.
  EXPECT_LE(known_hits, 2);
}

TEST(NegativeSampler, BothSidesGetCorrupted) {
  const Dataset ds = tiny_dataset();
  const NegativeSampler sampler(ds);
  util::Rng rng(5);
  int heads = 0, tails = 0;
  const Triple pos = ds.train()[0];
  for (int i = 0; i < 200; ++i) {
    const Triple neg = sampler.corrupt(pos, rng);
    heads += neg.head != pos.head;
    tails += neg.tail != pos.tail;
  }
  EXPECT_GT(heads, 50);
  EXPECT_GT(tails, 50);
}

TEST(NegativeSampler, DeterministicGivenSeed) {
  const Dataset ds = tiny_dataset();
  const NegativeSampler sampler(ds);
  util::Rng r1(7), r2(7);
  for (const Triple& pos : ds.train().subspan(0, 20)) {
    EXPECT_EQ(sampler.corrupt(pos, r1), sampler.corrupt(pos, r2));
  }
}

TEST(NegativeSampler, FallbackNeverReturnsThePositive) {
  // Every triple over 2 entities and 1 relation is known, so the filtered
  // draws all fail and each call ends in the unfiltered fallback.
  const Dataset ds(2, 1, {{0, 0, 0}, {0, 0, 1}, {1, 0, 0}, {1, 0, 1}}, {},
                   {});
  const NegativeSampler sampler(ds);
  const Triple positive{0, 0, 1};
  util::Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(sampler.corrupt(positive, rng), positive) << "call " << i;
  }
}

TEST(NegativeSampler, FallbackThrowsWithOneEntity) {
  // One entity admits no corruption at all.
  const Dataset ds(1, 1, {{0, 0, 0}}, {}, {});
  for (const bool filter_known : {true, false}) {
    const NegativeSampler sampler(ds, filter_known);
    util::Rng rng(7);
    EXPECT_THROW(sampler.corrupt({0, 0, 0}, rng), std::invalid_argument);
  }
}

}  // namespace
}  // namespace dynkge::kge
