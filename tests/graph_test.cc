#include "graph/graph.h"

#include <algorithm>
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
  EXPECT_EQ(isolated.num_edges(), 0);
}

TEST(WeightedGraphTest, SelfLoopIgnored) {
  WeightedGraph g(2, {{1, 1, 0.1}, {0, 1, 0.2}});
  ASSERT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.edges()[0].u, 0);
  EXPECT_DOUBLE_EQ(g.edges()[0].weight, 0.2);
}

TEST(WeightedGraphTest, ParallelEdgesMergeIntoFirstKeepingMinimum) {
  WeightedGraph g(3, {{0, 1, 0.8}, {1, 2, 0.5}, {1, 0, 0.3}, {0, 1, 0.9}});
  ASSERT_EQ(g.num_edges(), 2);
  // The first occurrence keeps its index and orientation.
  EXPECT_EQ(g.edges()[0].u, 0);
  EXPECT_EQ(g.edges()[0].v, 1);
  EXPECT_DOUBLE_EQ(g.edges()[0].weight, 0.3);
  EXPECT_EQ(g.edges()[1].u, 1);
  EXPECT_EQ(g.edges()[1].v, 2);
}

// Property: the counting-sort merge agrees with a quadratic scan that keeps
// each pair's first occurrence (its orientation and position) with the
// pair's minimum weight, on random lists with repeats in both orientations.
class WeightedGraphPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WeightedGraphPropertyTest, MergeMatchesScan) {
  Rng rng(GetParam());
  const int n = 2 + static_cast<int>(rng.NextUint64(30));
  std::vector<Edge> input;
  for (int k = 0; k < 3 * n; ++k) {
    input.push_back(Edge{static_cast<int>(rng.NextUint64(n)),
                         static_cast<int>(rng.NextUint64(n)),
                         rng.NextDouble(0.0, 2.0)});
  }
  std::vector<Edge> expected;
  for (const Edge& e : input) {
    if (e.u == e.v) continue;
    auto same = [&e](const Edge& kept) {
      return std::minmax(kept.u, kept.v) == std::minmax(e.u, e.v);
    };
    auto kept = std::find_if(expected.begin(), expected.end(), same);
    if (kept == expected.end()) {
      expected.push_back(e);
    } else {
      kept->weight = std::min(kept->weight, e.weight);
    }
  }
  WeightedGraph g(n, input);
  ASSERT_EQ(g.num_edges(), static_cast<int>(expected.size()));
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(g.edges()[i].u, expected[i].u) << i;
    EXPECT_EQ(g.edges()[i].v, expected[i].v) << i;
    EXPECT_EQ(g.edges()[i].weight, expected[i].weight) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedGraphPropertyTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace graph
}  // namespace tenet
