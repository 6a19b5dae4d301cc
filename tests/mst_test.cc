#include "graph/mst.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/union_find.h"

namespace tenet {
namespace graph {
namespace {

WeightedGraph Triangle() {
  return WeightedGraph(3, {{0, 1, 1.0}, {1, 2, 2.0}, {0, 2, 3.0}});
}

TEST(KruskalTest, SimpleTriangle) {
  SpanningForest mst = KruskalMst(Triangle());
  EXPECT_TRUE(mst.spans_all);
  EXPECT_EQ(mst.edge_indices.size(), 2u);
  EXPECT_DOUBLE_EQ(mst.total_weight, 3.0);
}

TEST(KruskalTest, DisconnectedGraphReportsNotSpanning) {
  WeightedGraph g(4, {{0, 1, 1.0}, {2, 3, 1.0}});
  SpanningForest forest = KruskalMst(g);
  EXPECT_FALSE(forest.spans_all);
  EXPECT_EQ(forest.edge_indices.size(), 2u);
}

TEST(KruskalTest, SingleNodeSpansTrivially) {
  SpanningForest mst = KruskalMst(WeightedGraph(1));
  EXPECT_TRUE(mst.spans_all);
  EXPECT_TRUE(mst.edge_indices.empty());
}

// The triangle in DenseMst's layout: node 0's row, then nodes 1..2.
constexpr double kNoEdge = std::numeric_limits<double>::infinity();
const std::vector<double> kTriangleRoot = {1.0, 3.0};
const std::vector<double> kTriangleBlock = {kNoEdge, 2.0, 2.0, kNoEdge};

TEST(DenseMstTest, MatchesKruskalOnTriangle) {
  const std::vector<Edge> mst =
      DenseMst(kTriangleRoot, kTriangleBlock, kNoEdge);
  ASSERT_EQ(mst.size(), 2u);
  EXPECT_EQ(mst[0].u, 0);
  EXPECT_EQ(mst[0].v, 1);
  EXPECT_EQ(mst[0].weight, 1.0);
  EXPECT_EQ(mst[1].u, 1);
  EXPECT_EQ(mst[1].v, 2);
  EXPECT_EQ(mst[1].weight, 2.0);
}

TEST(DenseMstTest, PrunesEdgesHeavierThanTheBound) {
  const std::vector<Edge> mst = DenseMst(kTriangleRoot, kTriangleBlock, 1.5);
  ASSERT_EQ(mst.size(), 1u);  // node 2 is out of reach
  EXPECT_EQ(mst[0].v, 1);
}

TEST(DenseMstTest, SingleNodeSpansTrivially) {
  EXPECT_TRUE(DenseMst({}, {}, kNoEdge).empty());
}

TEST(DenseMstTest, CoversOnlyNodeZerosComponent) {
  // Edges 0-1 and 3-4 over five nodes.
  const std::vector<double> root = {1.0, kNoEdge, kNoEdge, kNoEdge};
  std::vector<double> block(16, kNoEdge);
  block[2 * 4 + 3] = block[3 * 4 + 2] = 1.0;
  const std::vector<Edge> mst = DenseMst(root, block, kNoEdge);
  ASSERT_EQ(mst.size(), 1u);
  EXPECT_EQ(mst[0].u, 0);
  EXPECT_EQ(mst[0].v, 1);
}

WeightedGraph RandomConnectedGraph(Rng& rng, int n, double extra_edge_prob) {
  std::vector<Edge> edges;
  // Random spanning path first to guarantee connectivity.
  for (int i = 1; i < n; ++i) {
    edges.push_back(Edge{i - 1, i, rng.NextDouble(0.01, 1.0)});
  }
  for (int u = 0; u < n; ++u) {
    for (int v = u + 2; v < n; ++v) {
      if (rng.NextBool(extra_edge_prob)) {
        edges.push_back(Edge{u, v, rng.NextDouble(0.01, 1.0)});
      }
    }
  }
  return WeightedGraph(n, std::move(edges));
}

// Property test: the MST is acyclic and spanning on random connected
// graphs (mst_equivalence_test holds DenseMst to it).
class MstPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MstPropertyTest, KruskalIsASpanningTree) {
  Rng rng(GetParam());
  const int n = 3 + static_cast<int>(rng.NextUint64(30));
  WeightedGraph g = RandomConnectedGraph(rng, n, 0.3);

  SpanningForest kruskal = KruskalMst(g);
  ASSERT_TRUE(kruskal.spans_all);
  EXPECT_EQ(kruskal.edge_indices.size(), static_cast<size_t>(n - 1));

  // MST edges form a spanning tree: n-1 edges, no cycles.
  UnionFind uf(n);
  for (int edge_index : kruskal.edge_indices) {
    const Edge& e = g.edges()[edge_index];
    EXPECT_TRUE(uf.Union(e.u, e.v)) << "cycle in MST";
  }
  EXPECT_EQ(uf.num_sets(), 1);
}

// Cut property spot-check: the globally lightest edge is always in the MST
// when it is unique.
TEST_P(MstPropertyTest, LightestEdgeBelongsToMst) {
  Rng rng(GetParam() + 1000);
  const int n = 4 + static_cast<int>(rng.NextUint64(20));
  WeightedGraph g = RandomConnectedGraph(rng, n, 0.4);
  int lightest = 0;
  bool unique = true;
  for (int i = 1; i < g.num_edges(); ++i) {
    if (g.edges()[i].weight < g.edges()[lightest].weight) {
      lightest = i;
      unique = true;
    } else if (g.edges()[i].weight == g.edges()[lightest].weight) {
      unique = false;
    }
  }
  if (!unique) return;  // property only guaranteed for a unique minimum
  SpanningForest mst = KruskalMst(g);
  bool found = false;
  for (int edge_index : mst.edge_indices) {
    if (edge_index == lightest) found = true;
  }
  EXPECT_TRUE(found);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MstPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace graph
}  // namespace tenet
