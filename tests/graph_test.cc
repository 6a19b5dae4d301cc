#include "graph/graph.h"

#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace tenet {
namespace graph {
namespace {

TEST(WeightedGraphTest, EmptyGraph) {
  WeightedGraph g;
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  WeightedGraph isolated(3);
  EXPECT_EQ(isolated.num_nodes(), 3);
  EXPECT_TRUE(isolated.IncidentEdges(2).empty());
  EXPECT_FALSE(isolated.HasEdge(0, 1));
}

TEST(WeightedGraphTest, QueryEdges) {
  WeightedGraph g(4, {{0, 1, 0.5}, {2, 1, 0.25}});
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_EQ(g.FindEdge(1, 2), 1);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(1, 2, -1.0), 0.25);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 3, -1.0), -1.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 9, -1.0), -1.0);  // out of range
}

TEST(WeightedGraphTest, SelfLoopIgnored) {
  WeightedGraph g(2, {{1, 1, 0.1}, {0, 1, 0.2}});
  ASSERT_EQ(g.num_edges(), 1);
  EXPECT_FALSE(g.HasEdge(1, 1));
  EXPECT_DOUBLE_EQ(g.edges()[0].weight, 0.2);
}

TEST(WeightedGraphTest, ParallelEdgesMergeIntoFirstKeepingMinimum) {
  WeightedGraph g(3, {{0, 1, 0.8}, {1, 2, 0.5}, {1, 0, 0.3}, {0, 1, 0.9}});
  ASSERT_EQ(g.num_edges(), 2);
  // The first occurrence keeps its index and orientation.
  EXPECT_EQ(g.edges()[0].u, 0);
  EXPECT_EQ(g.edges()[0].v, 1);
  EXPECT_DOUBLE_EQ(g.edges()[0].weight, 0.3);
  EXPECT_EQ(g.FindEdge(2, 1), 1);
  EXPECT_EQ(g.IncidentEdges(1).size(), 2u);
}

TEST(WeightedGraphTest, IncidentEdgesInIndexOrder) {
  WeightedGraph g(4, {{0, 1, 1.0}, {3, 0, 3.0}, {0, 2, 2.0}});
  std::span<const int> incident = g.IncidentEdges(0);
  EXPECT_EQ(std::vector<int>(incident.begin(), incident.end()),
            (std::vector<int>{0, 1, 2}));
  for (int edge_index : incident) {
    EXPECT_NE(g.OtherEndpoint(edge_index, 0), 0);
  }
  ASSERT_EQ(g.IncidentEdges(1).size(), 1u);
  EXPECT_EQ(g.OtherEndpoint(g.IncidentEdges(1)[0], 1), 0);
}

// Property: FindEdge agrees with a scan of edges() on random graphs given
// in canonical (u, v) order, where it binary-searches, and shuffled with
// random orientations, where it scans.
class WeightedGraphPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WeightedGraphPropertyTest, FindEdgeMatchesScan) {
  Rng rng(GetParam());
  const int n = 2 + static_cast<int>(rng.NextUint64(30));
  std::vector<Edge> sorted;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.NextBool(0.3)) {
        sorted.push_back(Edge{u, v, rng.NextDouble(0.0, 2.0)});
      }
    }
  }
  std::vector<Edge> shuffled = sorted;
  for (Edge& e : shuffled) {
    if (rng.NextBool(0.5)) std::swap(e.u, e.v);
  }
  rng.Shuffle(shuffled);
  for (const std::vector<Edge>* list : {&sorted, &shuffled}) {
    WeightedGraph g(n, *list);
    ASSERT_EQ(g.num_edges(), static_cast<int>(list->size()));
    for (int u = 0; u < n; ++u) {
      for (int v = 0; v < n; ++v) {
        int expected = -1;
        for (int i = 0; i < g.num_edges(); ++i) {
          const Edge& e = g.edges()[i];
          if (u != v && ((e.u == u && e.v == v) || (e.u == v && e.v == u))) {
            expected = i;
          }
        }
        EXPECT_EQ(g.FindEdge(u, v), expected) << u << "-" << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedGraphPropertyTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace graph
}  // namespace tenet
