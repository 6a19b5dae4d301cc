// Step (c) of Algorithm 1 must hand steps (d)-(f) exactly the edge sequence
// Kruskal's algorithm accepts: the tree cover and Algorithm 5 read that
// order.  The solver computes it with PrimMst, which never sorts every
// edge; these tests hold PrimMst to KruskalMst, kept as the reference, on
// graphs where ties decide the tree.
#include <gtest/gtest.h>

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

// A connected random graph with every weight drawn from `weights`.  The
// extra edges range over ordered pairs, so both orientations and parallel
// edges occur (merged at construction), and the list is shuffled.
graph::WeightedGraph TieHeavyGraph(Rng& rng, int n,
                                   const std::vector<double>& weights) {
  std::vector<graph::Edge> edges;
  for (int i = 1; i < n; ++i) {  // a random spanning tree keeps it connected
    edges.push_back(graph::Edge{static_cast<int>(rng.NextUint64(i)), i,
                                rng.Pick(weights)});
  }
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      if (u != v && rng.NextBool(0.1)) {
        edges.push_back(graph::Edge{u, v, rng.Pick(weights)});
      }
    }
  }
  rng.Shuffle(edges);
  return graph::WeightedGraph(n, std::move(edges));
}

void ExpectKruskalSequence(const graph::WeightedGraph& g) {
  const graph::SpanningForest kruskal = graph::KruskalMst(g);
  const graph::SpanningForest prim = graph::PrimMst(g);
  ASSERT_TRUE(kruskal.spans_all);
  ASSERT_TRUE(prim.spans_all);
  EXPECT_EQ(prim.edge_indices, kruskal.edge_indices);
  // Same edges summed in the same order: the same bits.
  EXPECT_EQ(prim.total_weight, kruskal.total_weight);
}

class MstEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MstEquivalenceTest, ThreeWeightValues) {
  Rng rng(GetParam());
  const int n = 2 + static_cast<int>(rng.NextUint64(80));
  ExpectKruskalSequence(TieHeavyGraph(rng, n, {0.25, 0.5, 0.75}));
}

TEST_P(MstEquivalenceTest, AllWeightsEqual) {
  Rng rng(GetParam() + 1000);
  const int n = 2 + static_cast<int>(rng.NextUint64(80));
  ExpectKruskalSequence(TieHeavyGraph(rng, n, {0.5}));
}

// The solver's input shape: node 0 (the contracted root r) starred to
// every concept, concept-concept edges after, all in canonical order.
TEST_P(MstEquivalenceTest, ContractedStarShape) {
  Rng rng(GetParam() + 2000);
  const int n = 2 + static_cast<int>(rng.NextUint64(80));
  const std::vector<double> weights = {0.0, 0.5, 1.0};
  std::vector<graph::Edge> edges;
  for (int c = 1; c < n; ++c) {
    edges.push_back(graph::Edge{0, c, rng.Pick(weights)});
  }
  for (int a = 1; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      if (rng.NextBool(0.2)) {
        edges.push_back(graph::Edge{a, b, rng.Pick(weights)});
      }
    }
  }
  ExpectKruskalSequence(graph::WeightedGraph(n, std::move(edges)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MstEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 41));

TEST(MstEquivalenceDisconnectedTest, NeitherSpans) {
  graph::WeightedGraph g(5, {{0, 1, 0.5}, {1, 2, 0.5}, {3, 4, 0.5}});
  EXPECT_FALSE(graph::KruskalMst(g).spans_all);
  EXPECT_FALSE(graph::PrimMst(g).spans_all);
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
