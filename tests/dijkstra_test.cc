#include "graph/dijkstra.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace tenet {
namespace graph {
namespace {

TEST(DijkstraTest, LineGraphDistances) {
  WeightedGraph g(4, {{0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 4.0}});
  ShortestPaths sp = Dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(sp.distance[0], 0.0);
  EXPECT_DOUBLE_EQ(sp.distance[1], 1.0);
  EXPECT_DOUBLE_EQ(sp.distance[2], 3.0);
  EXPECT_DOUBLE_EQ(sp.distance[3], 7.0);
}

TEST(DijkstraTest, PrefersCheaperIndirectPath) {
  WeightedGraph g(3, {{0, 2, 10.0}, {0, 1, 1.0}, {1, 2, 1.0}});
  ShortestPaths sp = Dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(sp.distance[2], 2.0);
  std::vector<int> path = sp.PathTo(g, 2);
  EXPECT_EQ(path, (std::vector<int>{0, 1, 2}));
}

TEST(DijkstraTest, UnreachableNodes) {
  WeightedGraph g(3, {{0, 1, 1.0}});
  ShortestPaths sp = Dijkstra(g, 0);
  EXPECT_EQ(sp.distance[2], ShortestPaths::kUnreachable);
  EXPECT_TRUE(sp.PathTo(g, 2).empty());
}

TEST(DijkstraTest, PathToSourceIsItself) {
  WeightedGraph g(2, {{0, 1, 1.0}});
  ShortestPaths sp = Dijkstra(g, 0);
  EXPECT_EQ(sp.PathTo(g, 0), std::vector<int>{0});
}

TEST(DijkstraBoundedTest, HeavyEdgesAreNotTraversed) {
  WeightedGraph g(3, {{0, 1, 5.0}, {1, 2, 1.0}});
  ShortestPaths sp = Dijkstra(g, 0, 2.0);
  EXPECT_EQ(sp.distance[1], ShortestPaths::kUnreachable);
  EXPECT_EQ(sp.distance[2], ShortestPaths::kUnreachable);
  // The bound is inclusive, like Algorithm 1's step (a) pruning.
  EXPECT_DOUBLE_EQ(Dijkstra(g, 0, 5.0).distance[2], 6.0);
  ShortestPaths unbounded = Dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(unbounded.distance[2], 6.0);
}

// Property: Dijkstra distances satisfy the triangle inequality over every
// edge (d[v] <= d[u] + w(u,v)) and are exact on random graphs (validated
// with Bellman-Ford-style relaxation until fixpoint).
class DijkstraPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DijkstraPropertyTest, MatchesBellmanFord) {
  Rng rng(GetParam());
  const int n = 2 + static_cast<int>(rng.NextUint64(25));
  std::vector<Edge> edges;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.NextBool(0.25)) {
        edges.push_back(Edge{u, v, rng.NextDouble(0.0, 2.0)});
      }
    }
  }
  WeightedGraph g(n, std::move(edges));
  ShortestPaths sp = Dijkstra(g, 0);

  // Bellman-Ford reference.
  std::vector<double> ref(n, ShortestPaths::kUnreachable);
  ref[0] = 0.0;
  for (int iter = 0; iter < n; ++iter) {
    for (const Edge& e : g.edges()) {
      if (ref[e.u] + e.weight < ref[e.v]) ref[e.v] = ref[e.u] + e.weight;
      if (ref[e.v] + e.weight < ref[e.u]) ref[e.u] = ref[e.v] + e.weight;
    }
  }
  for (int v = 0; v < n; ++v) {
    if (ref[v] == ShortestPaths::kUnreachable) {
      EXPECT_EQ(sp.distance[v], ShortestPaths::kUnreachable);
    } else {
      EXPECT_NEAR(sp.distance[v], ref[v], 1e-9);
    }
  }

  // Edge relaxation invariant.
  for (const Edge& e : g.edges()) {
    if (sp.distance[e.u] != ShortestPaths::kUnreachable) {
      EXPECT_LE(sp.distance[e.v], sp.distance[e.u] + e.weight + 1e-9);
    }
  }

  // Reconstructed path weights match reported distances.
  for (int v = 0; v < n; ++v) {
    std::vector<int> path = sp.PathTo(g, v);
    if (sp.distance[v] == ShortestPaths::kUnreachable) {
      EXPECT_TRUE(path.empty());
      continue;
    }
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), 0);
    EXPECT_EQ(path.back(), v);
    double total = 0.0;
    for (size_t i = 1; i < path.size(); ++i) {
      total += g.EdgeWeight(path[i - 1], path[i], -1.0);
    }
    EXPECT_NEAR(total, sp.distance[v], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace graph
}  // namespace tenet
