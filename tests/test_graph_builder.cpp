#include "kge/graph_builder.hpp"

#include <gtest/gtest.h>

#include <string>

namespace dynkge::kge {
namespace {

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

TEST(GraphBuilder, EmptyGraphRejected) {
  GraphBuilder graph;
  EXPECT_THROW(graph.dataset_with_tail_holdout(0), std::invalid_argument);
}

}  // namespace
}  // namespace dynkge::kge
