// Step (c) of Algorithm 1 must hand steps (d)-(f) exactly the edge sequence
// Kruskal's algorithm accepts: the tree cover and Algorithm 5 read that
// order.  The solver computes it with DenseMst, an array Prim over a
// distance matrix that never lists or sorts the edges; these tests hold
// DenseMst to KruskalMst, kept as the reference, over the same edges listed
// in (lo, hi) order, on matrices where ties decide the tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/canopy.h"
#include "core/coherence_graph.h"
#include "core/tree_cover.h"
#include "figure_one_world.h"
#include "graph/mst.h"
#include "text/extraction.h"

namespace tenet {
namespace {

constexpr double kNoEdge = std::numeric_limits<double>::infinity();

// A symmetric n x n weight matrix; +inf is no edge.
class Matrix {
 public:
  explicit Matrix(int n) : n_(n), weight_(static_cast<size_t>(n) * n, kNoEdge) {}

  int n() const { return n_; }
  double at(int u, int v) const { return weight_[u * n_ + v]; }
  void Set(int u, int v, double weight) {
    weight_[u * n_ + v] = weight;
    weight_[v * n_ + u] = weight;
  }

  // DenseMst's layout: node 0's row, and the block over nodes 1..n-1.
  std::vector<double> Root() const {
    return std::vector<double>(weight_.begin() + 1, weight_.begin() + n_);
  }
  std::vector<double> Block() const {
    std::vector<double> block;
    for (int u = 1; u < n_; ++u) {
      for (int v = 1; v < n_; ++v) block.push_back(at(u, v));
    }
    return block;
  }

  // The edges of weight <= bound, in (lo, hi) order.
  graph::WeightedGraph Graph(double bound) const {
    std::vector<graph::Edge> edges;
    for (int u = 0; u < n_; ++u) {
      for (int v = u + 1; v < n_; ++v) {
        if (at(u, v) != kNoEdge && at(u, v) <= bound) {
          edges.push_back(graph::Edge{u, v, at(u, v)});
        }
      }
    }
    return graph::WeightedGraph(n_, std::move(edges));
  }

 private:
  int n_;
  std::vector<double> weight_;
};

// A connected random matrix with every weight drawn from `weights`: a
// random spanning tree, then each further pair with probability 0.2.
Matrix TieHeavyMatrix(Rng& rng, int n, const std::vector<double>& weights) {
  Matrix m(n);
  for (int i = 1; i < n; ++i) {
    m.Set(static_cast<int>(rng.NextUint64(i)), i, rng.Pick(weights));
  }
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.NextBool(0.2)) m.Set(u, v, rng.Pick(weights));
    }
  }
  return m;
}

// DenseMst at `bound` against KruskalMst over the edges of weight <= bound.
// When Kruskal spans the graph, both accept the same edges in the same
// order, the sums have the same bits, and DenseMst orients every edge away
// from node 0.
void ExpectKruskalSequence(const Matrix& m, double bound = kNoEdge) {
  const graph::WeightedGraph g = m.Graph(bound);
  const graph::SpanningForest kruskal = graph::KruskalMst(g);
  const std::vector<graph::Edge> dense =
      graph::DenseMst(m.Root(), m.Block(), bound);
  const bool dense_spans = static_cast<int>(dense.size()) == m.n() - 1;
  ASSERT_EQ(dense_spans, kruskal.spans_all);
  if (!kruskal.spans_all) return;
  ASSERT_EQ(dense.size(), kruskal.edge_indices.size());
  double sum = 0.0;
  std::vector<int> parent(m.n(), -1);
  for (size_t k = 0; k < dense.size(); ++k) {
    const graph::Edge& want = g.edges()[kruskal.edge_indices[k]];
    EXPECT_EQ(std::min(dense[k].u, dense[k].v), want.u) << k;
    EXPECT_EQ(std::max(dense[k].u, dense[k].v), want.v) << k;
    EXPECT_EQ(dense[k].weight, want.weight) << k;
    sum += dense[k].weight;
    ASSERT_EQ(parent[dense[k].v], -1) << "node " << dense[k].v
                                      << " has two parents";
    parent[dense[k].v] = dense[k].u;
  }
  // Same edges summed in the same order: the same bits.
  EXPECT_EQ(sum, kruskal.total_weight);
  EXPECT_EQ(parent[0], -1);
  for (int node = 1; node < m.n(); ++node) {
    int steps = 0;
    int at = node;
    while (at != 0 && steps++ < m.n()) at = parent[at];
    EXPECT_EQ(at, 0) << "node " << node << " does not hang off node 0";
  }
}

class MstEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MstEquivalenceTest, ThreeWeightValues) {
  Rng rng(GetParam());
  const int n = 2 + static_cast<int>(rng.NextUint64(80));
  ExpectKruskalSequence(TieHeavyMatrix(rng, n, {0.25, 0.5, 0.75}));
}

TEST_P(MstEquivalenceTest, AllWeightsEqual) {
  Rng rng(GetParam() + 1000);
  const int n = 2 + static_cast<int>(rng.NextUint64(80));
  ExpectKruskalSequence(TieHeavyMatrix(rng, n, {0.5}));
}

// The solver's input shape: node 0 (the contracted root r) joined to every
// concept, some concept pairs joined, weights tied, pruned at the bound as
// step (a) prunes.
TEST_P(MstEquivalenceTest, ContractedStarShape) {
  Rng rng(GetParam() + 2000);
  const int n = 2 + static_cast<int>(rng.NextUint64(80));
  const std::vector<double> weights = {0.0, 0.5, 1.0};
  Matrix m(n);
  for (int c = 1; c < n; ++c) m.Set(0, c, rng.Pick(weights));
  for (int a = 1; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      if (rng.NextBool(0.2)) m.Set(a, b, rng.Pick(weights));
    }
  }
  ExpectKruskalSequence(m);
  ExpectKruskalSequence(m, /*bound=*/0.5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MstEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 41));

TEST(MstEquivalenceDisconnectedTest, NeitherSpans) {
  Matrix m(5);
  m.Set(0, 1, 0.5);
  m.Set(1, 2, 0.5);
  m.Set(3, 4, 0.5);
  EXPECT_FALSE(graph::KruskalMst(m.Graph(kNoEdge)).spans_all);
  EXPECT_LT(graph::DenseMst(m.Root(), m.Block(), kNoEdge).size(), 4u);
}

TEST(MstEquivalenceDisconnectedTest, SolverReportsBoundTooSmall) {
  // Below every candidate edge, step (a) leaves the contracted graph
  // disconnected: step (c) raises the failure warning before any MST is
  // reported.
  testing_support::FigureOneWorld world =
      testing_support::BuildFigureOneWorld();
  text::Extractor extractor(&world.gazetteer);
  core::CoherenceGraphBuilder builder(&world.kb, &world.embeddings);
  core::CoherenceGraph cg = builder.Build(core::BuildMentionSet(
      extractor.ExtractFromText(
          "Michael Jordan studies artificial intelligence and machine "
          "learning."),
      &world.gazetteer));
  ASSERT_GT(cg.num_concept_nodes(), 0);
  core::TreeCoverStats stats;
  Result<core::TreeCover> cover =
      core::TreeCoverSolver().Solve(cg, 1e-9, &stats);
  ASSERT_FALSE(cover.ok());
  EXPECT_TRUE(cover.status().IsBoundTooSmall());
  EXPECT_EQ(stats.mst_edges, 0);
}

}  // namespace
}  // namespace tenet
