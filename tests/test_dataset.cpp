#include "kge/dataset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "kge/triple.hpp"
#include "util/rng.hpp"

namespace dynkge::kge {
namespace {

TEST(PackTriple, RoundTripDistinct) {
  const auto a = pack_triple(1, 2, 3);
  const auto b = pack_triple(3, 2, 1);
  const auto c = pack_triple(1, 3, 2);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
}

TEST(PackTriple, LargeIdsStayDistinct) {
  const auto a = pack_triple(240000, 9279, 239999);
  const auto b = pack_triple(240000, 9279, 239998);
  const auto c = pack_triple(239999, 9279, 240000);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
}

TEST(TripleEquality, DefaultComparison) {
  const Triple a{1, 2, 3};
  const Triple b{1, 2, 3};
  const Triple c{1, 2, 4};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(TripleHash, ConsistentWithEquality) {
  const TripleHash hash;
  EXPECT_EQ(hash(Triple{1, 2, 3}), hash(Triple{1, 2, 3}));
}

TEST(Dataset, BasicAccessors) {
  const Dataset ds(10, 3, {{0, 0, 1}, {1, 1, 2}}, {{2, 2, 3}}, {{3, 0, 4}});
  EXPECT_EQ(ds.num_entities(), 10);
  EXPECT_EQ(ds.num_relations(), 3);
  EXPECT_EQ(ds.train().size(), 2u);
  EXPECT_EQ(ds.valid().size(), 1u);
  EXPECT_EQ(ds.test().size(), 1u);
  EXPECT_EQ(ds.num_facts(), 4u);
}

TEST(Dataset, ContainsSeesAllSplits) {
  const Dataset ds(10, 3, {{0, 0, 1}}, {{2, 2, 3}}, {{3, 0, 4}});
  EXPECT_TRUE(ds.contains(0, 0, 1));   // train
  EXPECT_TRUE(ds.contains(2, 2, 3));   // valid
  EXPECT_TRUE(ds.contains(3, 0, 4));   // test
  EXPECT_FALSE(ds.contains(0, 0, 2));
  EXPECT_FALSE(ds.contains(Triple{1, 0, 0}));
}

/// The filter's answer for `q` must be the reference set's.
void expect_same_answer(const Dataset& ds,
                        const std::set<std::uint64_t>& reference,
                        const Triple& q) {
  EXPECT_EQ(ds.contains(q), reference.count(pack_triple(q)) == 1)
      << ds.num_facts() << " facts: (" << q.head << ", " << q.relation
      << ", " << q.tail << ")";
}

TEST(Dataset, ContainsMatchesReferenceSet) {
  // The largest id pack_triple keeps; the largest legal entity id is one
  // below it, since num_entities must stay under 2^21.
  constexpr EntityId kTopId = (1 << 21) - 1;
  constexpr RelationId kRelations = 7;
  util::Rng rng(2026);
  // Mostly ids from a small pool, so triples collide, probes run long and
  // near misses land next to stored keys; the rest span the whole id space.
  const auto entity = [&](EntityId limit) {
    return static_cast<EntityId>(
        rng.next_bernoulli(0.75) ? rng.next_below(48) : rng.next_below(limit));
  };
  // Capacity steps at powers of two: 1024 facts get 2048 slots (a load
  // just under one half, as a few facts repeat), 1025 facts get 4096.
  for (const std::size_t facts : {1024u, 1025u}) {
    TripleList splits[3];
    // The same triples in every split: key 0, and the largest legal ids.
    for (TripleList& split : splits) {
      split.push_back({0, 0, 0});
      split.push_back({kTopId - 1, kRelations - 1, kTopId - 1});
    }
    for (std::size_t n = 6; n < facts; ++n) {
      splits[n % 3].push_back(
          {entity(kTopId),
           static_cast<RelationId>(rng.next_below(kRelations)),
           entity(kTopId)});
    }
    const Dataset ds(kTopId, kRelations, splits[0], splits[1], splits[2]);
    ASSERT_EQ(ds.num_facts(), facts);
    std::set<std::uint64_t> reference;
    std::vector<Triple> stored;
    for (const TripleList& split : splits) {
      for (const Triple& t : split) {
        reference.insert(pack_triple(t));
        stored.push_back(t);
      }
    }
    const auto check = [&](const Triple& q) {
      expect_same_answer(ds, reference, q);
    };
    check({0, 0, 0});
    check({kTopId, kRelations - 1, kTopId});
    check({kTopId, kTopId, kTopId});
    for (int i = 0; i < 100000; ++i) {
      Triple q = stored[rng.next_below(stored.size())];
      switch (rng.next_below(3)) {
        case 0:  // a stored triple
          break;
        case 1:  // a near miss: the tail moved by one
          q.tail = std::min(q.tail + 1, kTopId);
          break;
        default:  // anywhere, ids up to 2^21 - 1 included
          q = {entity(kTopId + 1),
               static_cast<RelationId>(rng.next_below(kRelations + 1)),
               entity(kTopId + 1)};
      }
      check(q);
    }
  }
  // Small tables, queried exhaustively: across 1-64 facts over 8 entities
  // and 2 relations, some probes run past the last slot and must wrap.
  for (std::size_t facts = 1; facts <= 64; ++facts) {
    TripleList train;
    std::set<std::uint64_t> reference;
    for (std::size_t n = 0; n < facts; ++n) {
      train.push_back({static_cast<EntityId>(rng.next_below(8)),
                       static_cast<RelationId>(rng.next_below(2)),
                       static_cast<EntityId>(rng.next_below(8))});
      reference.insert(pack_triple(train.back()));
    }
    const Dataset ds(8, 2, train, {}, {});
    for (EntityId h = 0; h < 8; ++h) {
      for (RelationId r = 0; r < 2; ++r) {
        for (EntityId t = 0; t < 8; ++t) {
          expect_same_answer(ds, reference, {h, r, t});
        }
      }
    }
  }
}

TEST(Dataset, EmptyTablesContainNothing) {
  const Dataset unset;  // default-constructed: no table at all
  EXPECT_FALSE(unset.contains(0, 0, 0));
  EXPECT_FALSE(unset.contains(Triple{1, 2, 3}));
  const Dataset no_facts(3, 1, {}, {}, {});
  EXPECT_FALSE(no_facts.contains(0, 0, 0));
  const Dataset one_fact(3, 1, {{1, 0, 2}}, {}, {});
  EXPECT_FALSE(one_fact.contains(0, 0, 0));  // key 0 is not the empty slot
  EXPECT_TRUE(one_fact.contains(1, 0, 2));
}

TEST(Dataset, RejectsOutOfRangeEntity) {
  EXPECT_THROW(Dataset(2, 1, {{0, 0, 5}}, {}, {}), std::invalid_argument);
  EXPECT_THROW(Dataset(2, 1, {{-1, 0, 0}}, {}, {}), std::invalid_argument);
}

TEST(Dataset, RejectsOutOfRangeRelation) {
  EXPECT_THROW(Dataset(2, 1, {}, {{0, 1, 1}}, {}), std::invalid_argument);
}

TEST(Dataset, RejectsEmptyVocabulary) {
  EXPECT_THROW(Dataset(0, 1, {}, {}, {}), std::invalid_argument);
  EXPECT_THROW(Dataset(1, 0, {}, {}, {}), std::invalid_argument);
}

TEST(Dataset, RejectsIdsBeyondPacking) {
  EXPECT_THROW(Dataset(1 << 21, 1, {}, {}, {}), std::invalid_argument);
}

TEST(Dataset, SummaryMentionsCounts) {
  const Dataset ds(10, 3, {{0, 0, 1}}, {}, {});
  const std::string s = ds.summary("demo");
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("10 entities"), std::string::npos);
  EXPECT_NE(s.find("3 relations"), std::string::npos);
}

}  // namespace
}  // namespace dynkge::kge
