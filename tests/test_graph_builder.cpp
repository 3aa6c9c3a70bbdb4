#include "kge/graph_builder.hpp"

#include <gtest/gtest.h>

#include <string>

namespace dynkge::kge {
namespace {

/// `prefix` followed by the decimal digits of `i` ("e12"), appended to a
/// named string: GCC 12 misreads `"e" + std::to_string(i)` as an
/// overlapping memcpy (-Wrestrict).
std::string named(char prefix, int i) {
  std::string name(1, prefix);
  name += std::to_string(i);
  return name;
}

GraphBuilder small_graph() {
  GraphBuilder graph;
  graph.fact("delhi", "capital_of", "india");
  graph.fact("paris", "capital_of", "france");
  graph.fact("delhi", "located_in", "india");
  graph.fact("paris", "located_in", "france");
  graph.fact("india", "borders", "china");
  return graph;
}

TEST(GraphBuilder, InternsNamesOnce) {
  GraphBuilder graph = small_graph();
  EXPECT_EQ(graph.num_entities(), 5u);   // delhi india paris france china
  EXPECT_EQ(graph.num_relations(), 3u);  // capital_of located_in borders
  EXPECT_EQ(graph.num_facts(), 5u);
  EXPECT_EQ(graph.entity("delhi"), graph.entity("delhi"));
  EXPECT_NE(graph.entity("delhi"), graph.entity("paris"));
}

TEST(GraphBuilder, NamesRoundTrip) {
  GraphBuilder graph = small_graph();
  EXPECT_EQ(graph.entity_name(graph.entity("india")), "india");
  EXPECT_EQ(graph.relation_name(graph.relation("borders")), "borders");
}

TEST(GraphBuilder, TailHoldoutSplit) {
  GraphBuilder graph = small_graph();
  const Dataset ds = graph.dataset_with_tail_holdout(2);
  EXPECT_EQ(ds.train().size(), 3u);
  EXPECT_EQ(ds.test().size(), 2u);
  EXPECT_EQ(ds.valid().size(), 2u);
  // Last recorded fact lands in test.
  EXPECT_TRUE(ds.contains(graph.entity("india"), graph.relation("borders"),
                          graph.entity("china")));
}

TEST(GraphBuilder, TailHoldoutRejectsTooLarge) {
  GraphBuilder graph = small_graph();
  EXPECT_THROW(graph.dataset_with_tail_holdout(5), std::invalid_argument);
  EXPECT_THROW(graph.dataset_with_tail_holdout(99), std::invalid_argument);
}

TEST(GraphBuilder, RandomSplitCoversAllFacts) {
  GraphBuilder graph;
  for (int i = 0; i < 200; ++i) {
    graph.fact(named('e', i % 40), named('r', i % 5), named('e', (i + 7) % 40));
  }
  const Dataset ds = graph.dataset_with_random_split(0.1, 0.1, 42);
  EXPECT_EQ(ds.num_facts(), graph.num_facts());
  EXPECT_GT(ds.test().size(), 0u);
  EXPECT_GT(ds.valid().size(), 0u);
}

TEST(GraphBuilder, RandomSplitKeepsVocabInTrain) {
  GraphBuilder graph;
  for (int i = 0; i < 300; ++i) {
    graph.fact(named('e', i % 30), named('r', i % 6),
               named('e', (i + 11) % 30));
  }
  const Dataset ds = graph.dataset_with_random_split(0.15, 0.15, 7);
  std::vector<bool> entity_in_train(ds.num_entities(), false);
  std::vector<bool> relation_in_train(ds.num_relations(), false);
  for (const Triple& t : ds.train()) {
    entity_in_train[t.head] = true;
    entity_in_train[t.tail] = true;
    relation_in_train[t.relation] = true;
  }
  for (const std::span<const Triple> split : {ds.valid(), ds.test()}) {
    for (const Triple& t : split) {
      EXPECT_TRUE(entity_in_train[t.head]);
      EXPECT_TRUE(entity_in_train[t.tail]);
      EXPECT_TRUE(relation_in_train[t.relation]);
    }
  }
}

TEST(GraphBuilder, RandomSplitDeterministic) {
  GraphBuilder a = small_graph();
  GraphBuilder b = small_graph();
  const Dataset da = a.dataset_with_random_split(0.2, 0.2, 3);
  const Dataset db = b.dataset_with_random_split(0.2, 0.2, 3);
  ASSERT_EQ(da.train().size(), db.train().size());
  for (std::size_t i = 0; i < da.train().size(); ++i) {
    EXPECT_EQ(da.train()[i], db.train()[i]);
  }
}

TEST(GraphBuilder, EmptyGraphRejected) {
  GraphBuilder graph;
  EXPECT_THROW(graph.dataset_with_random_split(0.1, 0.1, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace dynkge::kge
