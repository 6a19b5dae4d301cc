#include "graph/tree.h"

#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace tenet {
namespace graph {
namespace {

TEST(RootedTreeTest, SingletonTree) {
  RootedTree t = RootedTree::Singleton(42);
  EXPECT_EQ(t.root(), 42);
  EXPECT_EQ(t.num_nodes(), 1);
  EXPECT_EQ(t.num_edges(), 0);
  EXPECT_DOUBLE_EQ(t.TotalWeight(), 0.0);
  EXPECT_EQ(t.nodes(), std::vector<int>{42});
  EXPECT_EQ(t.ChildBegin(0), t.ChildEnd(0));
}

TEST(RootedTreeTest, StoresNodesBreadthFirst) {
  // 5 is root; edges supplied deepest first.
  Result<RootedTree> result = RootedTree::FromOrientedEdges(
      5, {TreeEdge{7, 9, 2.0}, TreeEdge{5, 7, 1.0}, TreeEdge{5, 3, 0.5}});
  ASSERT_TRUE(result.ok()) << result.status();
  const RootedTree& t = result.value();
  EXPECT_EQ(t.root(), 5);
  EXPECT_EQ(t.nodes(), (std::vector<int>{5, 7, 3, 9}));
  // Children contiguous, in supplied order: 7 and 3 under 5, 9 under 7.
  EXPECT_EQ(t.ChildBegin(0), 1);
  EXPECT_EQ(t.ChildEnd(0), 3);
  EXPECT_EQ(t.ChildBegin(1), 3);
  EXPECT_EQ(t.ChildEnd(1), 4);
  EXPECT_EQ(t.ChildBegin(2), t.ChildEnd(2));
  EXPECT_EQ(t.edges()[2].parent, 7);
  EXPECT_DOUBLE_EQ(t.TotalWeight(), 3.5);
}

TEST(RootedTreeTest, RejectsCycle) {
  EXPECT_FALSE(RootedTree::FromOrientedEdges(
                   0, {TreeEdge{0, 1, 1.0}, TreeEdge{1, 2, 1.0},
                       TreeEdge{2, 0, 1.0}})
                   .ok());
  // A cycle beside the root's own tree.
  EXPECT_FALSE(RootedTree::FromOrientedEdges(
                   0, {TreeEdge{0, 1, 1.0}, TreeEdge{2, 3, 1.0},
                       TreeEdge{3, 2, 1.0}})
                   .ok());
}

TEST(RootedTreeTest, RejectsNodeWithTwoParents) {
  EXPECT_FALSE(RootedTree::FromOrientedEdges(
                   0, {TreeEdge{0, 1, 1.0}, TreeEdge{0, 2, 1.0},
                       TreeEdge{1, 3, 1.0}, TreeEdge{2, 3, 1.0}})
                   .ok());
}

TEST(RootedTreeTest, RejectsDisconnected) {
  EXPECT_FALSE(RootedTree::FromOrientedEdges(
                   0, {TreeEdge{0, 1, 1.0}, TreeEdge{2, 3, 1.0}})
                   .ok());
}

TEST(RootedTreeTest, RejectsEdgesNotContainingRoot) {
  EXPECT_FALSE(RootedTree::FromOrientedEdges(0, {TreeEdge{1, 2, 1.0}}).ok());
}

// Property: on random trees supplied in random order, nodes() holds every
// id once, the child ranges tile positions 1..n-1 in order, each child's
// edge names its parent, and TotalWeight sums the edges.
class TreePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TreePropertyTest, RandomTreeInvariants) {
  Rng rng(GetParam());
  const int n = 2 + static_cast<int>(rng.NextUint64(40));
  std::vector<TreeEdge> edges;
  double expected_weight = 0.0;
  // Random recursive tree: node i attaches to a random earlier node.
  for (int i = 1; i < n; ++i) {
    int parent = static_cast<int>(rng.NextUint64(i));
    double weight = rng.NextDouble(0.1, 1.0);
    expected_weight += weight;
    edges.push_back(TreeEdge{parent, i, weight});
  }
  rng.Shuffle(edges);
  RootedTree t = RootedTree::FromOrientedEdges(0, edges).value();
  EXPECT_EQ(t.num_nodes(), n);
  EXPECT_NEAR(t.TotalWeight(), expected_weight, 1e-9);
  std::set<int> unique(t.nodes().begin(), t.nodes().end());
  EXPECT_EQ(unique.size(), static_cast<size_t>(n));

  EXPECT_EQ(t.ChildBegin(0), 1);
  for (int pos = 0; pos < t.num_nodes(); ++pos) {
    if (pos > 0) {
      EXPECT_EQ(t.ChildBegin(pos), t.ChildEnd(pos - 1));
    }
    for (int child = t.ChildBegin(pos); child < t.ChildEnd(pos); ++child) {
      EXPECT_EQ(t.edges()[child - 1].parent, t.nodes()[pos]);
      EXPECT_EQ(t.edges()[child - 1].child, t.nodes()[child]);
    }
  }
  EXPECT_EQ(t.ChildEnd(t.num_nodes() - 1), t.num_nodes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreePropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace graph
}  // namespace tenet
