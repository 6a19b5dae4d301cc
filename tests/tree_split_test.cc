#include "core/tree_split.h"

#include <unordered_set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/tree.h"

namespace tenet {
namespace core {
namespace {

using graph::RootedTree;
using graph::TreeEdge;

RootedTree TreeFromOriented(int root, std::vector<TreeEdge> edges) {
  Result<RootedTree> t = RootedTree::FromOrientedEdges(root, edges);
  EXPECT_TRUE(t.ok()) << t.status();
  return std::move(t).value();
}

TEST(TreeSplitTest, LightTreeReturnsUnsplit) {
  RootedTree tree = TreeFromOriented(
      0, {TreeEdge{0, 1, 0.4}, TreeEdge{1, 2, 0.3}});
  Result<SplitResult> split = SplitTree(tree, 1.0);
  ASSERT_TRUE(split.ok());
  EXPECT_TRUE(split->subtrees.empty());
  EXPECT_EQ(split->leftover.num_edges(), 2);
  EXPECT_EQ(split->leftover.root(), 0);
}

TEST(TreeSplitTest, SingletonTree) {
  RootedTree tree = RootedTree::Singleton(5);
  Result<SplitResult> split = SplitTree(tree, 1.0);
  ASSERT_TRUE(split.ok());
  EXPECT_TRUE(split->subtrees.empty());
  EXPECT_EQ(split->leftover.root(), 5);
  EXPECT_EQ(split->leftover.num_nodes(), 1);
}

TEST(TreeSplitTest, HeavyPathIsCarved) {
  // Path 0-1-2-3-4 with unit-ish weights, bound 1.0.
  RootedTree tree = TreeFromOriented(0, {TreeEdge{0, 1, 0.9},
                                         TreeEdge{1, 2, 0.9},
                                         TreeEdge{2, 3, 0.9},
                                         TreeEdge{3, 4, 0.9}});
  Result<SplitResult> split = SplitTree(tree, 1.0);
  ASSERT_TRUE(split.ok());
  EXPECT_LE(split->leftover.TotalWeight(), 1.0);
  EXPECT_EQ(split->leftover.root(), 0);
  ASSERT_FALSE(split->subtrees.empty());
  for (const RootedTree& s : split->subtrees) {
    EXPECT_GT(s.TotalWeight(), 1.0);
    EXPECT_LE(s.TotalWeight(), 2.0);
  }
}

TEST(TreeSplitTest, RejectsEdgeHeavierThanBound) {
  RootedTree tree = TreeFromOriented(0, {TreeEdge{0, 1, 2.5}});
  Result<SplitResult> split = SplitTree(tree, 1.0);
  EXPECT_FALSE(split.ok());
  EXPECT_TRUE(split.status().IsInvalidArgument());
}

TEST(TreeSplitTest, RejectsNonPositiveBound) {
  RootedTree tree = RootedTree::Singleton(0);
  EXPECT_FALSE(SplitTree(tree, 0.0).ok());
  EXPECT_FALSE(SplitTree(tree, -1.0).ok());
}

TEST(TreeSplitTest, StarOfHeavyLeaves) {
  // Root with 6 children, each edge 0.8; bound 1.0.  Children must be
  // bundled into subtrees of weight 1.6 (two edges each).
  std::vector<TreeEdge> edges;
  for (int c = 1; c <= 6; ++c) edges.push_back(TreeEdge{0, c, 0.8});
  RootedTree tree = TreeFromOriented(0, edges);
  Result<SplitResult> split = SplitTree(tree, 1.0);
  ASSERT_TRUE(split.ok());
  EXPECT_LE(split->leftover.TotalWeight(), 1.0);
  double total = split->leftover.TotalWeight();
  for (const RootedTree& s : split->subtrees) {
    EXPECT_GT(s.TotalWeight(), 1.0);
    EXPECT_LE(s.TotalWeight(), 2.0);
    total += s.TotalWeight();
  }
  EXPECT_NEAR(total, 6 * 0.8, 1e-9);
}

// ---- Property tests ---------------------------------------------------------

RootedTree RandomTree(Rng& rng, int n, double max_edge_weight) {
  std::vector<TreeEdge> edges;
  for (int i = 1; i < n; ++i) {
    int parent = static_cast<int>(rng.NextUint64(i));
    edges.push_back(
        TreeEdge{parent, i, rng.NextDouble(0.01, max_edge_weight)});
  }
  Result<RootedTree> t = RootedTree::FromOrientedEdges(0, edges);
  TENET_CHECK(t.ok());
  return std::move(t).value();
}

struct SplitParam {
  uint64_t seed;
  double bound;
};

class TreeSplitPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, double>> {};

TEST_P(TreeSplitPropertyTest, InvariantsOnRandomTrees) {
  auto [seed, bound] = GetParam();
  Rng rng(seed);
  const int n = 2 + static_cast<int>(rng.NextUint64(60));
  RootedTree tree = RandomTree(rng, n, bound);  // edges <= bound

  Result<SplitResult> split = SplitTree(tree, bound);
  ASSERT_TRUE(split.ok()) << split.status();

  // Leftover invariant: contains root, weight <= bound.
  EXPECT_EQ(split->leftover.root(), 0);
  EXPECT_LE(split->leftover.TotalWeight(), bound + 1e-9);

  // Subtree invariant: weight in (bound, 2*bound]; root never inside.
  for (const RootedTree& s : split->subtrees) {
    EXPECT_GT(s.TotalWeight(), bound - 1e-9);
    EXPECT_LE(s.TotalWeight(), 2.0 * bound + 1e-9);
    for (const TreeEdge& e : s.edges()) {
      EXPECT_NE(e.child, 0) << "root carved away from leftover";
    }
  }

  // Edge partition: every original edge appears exactly once across the
  // leftover and all subtrees (keyed by child, unique in a rooted tree).
  std::unordered_set<int> children_seen;
  auto record = [&children_seen](const RootedTree& t) {
    for (const TreeEdge& e : t.edges()) {
      EXPECT_TRUE(children_seen.insert(e.child).second)
          << "edge to child " << e.child << " duplicated";
    }
  };
  record(split->leftover);
  for (const RootedTree& s : split->subtrees) record(s);
  EXPECT_EQ(children_seen.size(), static_cast<size_t>(tree.num_edges()));

  // Weight conservation.
  double total = split->leftover.TotalWeight();
  for (const RootedTree& s : split->subtrees) total += s.TotalWeight();
  EXPECT_NEAR(total, tree.TotalWeight(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndBounds, TreeSplitPropertyTest,
    ::testing::Combine(::testing::Range<uint64_t>(1, 16),
                       ::testing::Values(0.5, 1.0, 3.0)));

}  // namespace
}  // namespace core
}  // namespace tenet
