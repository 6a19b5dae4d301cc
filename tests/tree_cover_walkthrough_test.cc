// A hand-computable walkthrough of Algorithm 1 in the spirit of the
// paper's Figure 2: a small coherence graph whose MST, decomposition,
// splitting and matching steps can be verified against manual arithmetic.
#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "core/canopy.h"
#include "core/coherence_graph.h"
#include "core/tree_cover.h"
#include "embedding/embedding_store.h"
#include "kb/knowledge_base.h"

namespace tenet {
namespace core {
namespace {

// World: two mentions.
//   m0 "Alpha":  candidates A1 (prior 0.8), A2 (prior 0.2)
//   m1 "Beta":   candidate  B1 (prior 1.0)
// Embeddings: A1 and B1 on the same axis (cos 1 -> distance 0); A2
// orthogonal to both (distance 1).
struct Walkthrough {
  kb::KnowledgeBase kb;
  embedding::EmbeddingStore embeddings{2, 0, 0};
  kb::EntityId a1, a2, b1;

  Walkthrough() {
    a1 = kb.AddEntity("Alpha One", kb::EntityType::kOther, 0, 8.0);
    a2 = kb.AddEntity("Alpha Two", kb::EntityType::kOther, 1, 2.0);
    b1 = kb.AddEntity("Beta", kb::EntityType::kOther, 0, 1.0);
    kb.AddEntityAlias(a1, "Alpha", 8.0);
    kb.AddEntityAlias(a2, "Alpha", 2.0);
    kb.Finalize();
    embeddings = embedding::EmbeddingStore(2, 3, 0);
    embeddings.MutableVector(kb::ConceptRef::Entity(a1))[0] = 1.0f;
    embeddings.MutableVector(kb::ConceptRef::Entity(a2))[1] = 1.0f;
    embeddings.MutableVector(kb::ConceptRef::Entity(b1))[0] = 1.0f;
    embeddings.Finalize();
  }

  CoherenceGraph BuildGraph() {
    MentionSet set;
    for (const char* surface : {"Alpha", "Beta"}) {
      Mention mention;
      mention.kind = Mention::Kind::kNoun;
      mention.surface = surface;
      mention.sentences = {0};
      mention.group = set.num_groups();
      int id = set.num_mentions();
      set.mentions.push_back(std::move(mention));
      MentionGroup group;
      group.members = {id};
      group.short_mentions = {id};
      group.canopies = {Canopy{{id}}};
      set.groups.push_back(std::move(group));
    }
    CoherenceGraphBuilder builder(&kb, &embeddings);
    return builder.Build(std::move(set));
  }
};

// Node ids in the coherence graph: 0 = m0, 1 = m1, then concept nodes in
// candidate order: 2 = A1 (prior .8), 3 = A2 (prior .2), 4 = B1.
TEST(TreeCoverWalkthroughTest, GraphWeightsMatchHandComputation) {
  Walkthrough w;
  CoherenceGraph cg = w.BuildGraph();
  ASSERT_EQ(cg.num_mentions(), 2);
  ASSERT_EQ(cg.num_concept_nodes(), 3);

  EXPECT_NEAR(cg.EdgeWeight(0, 2, -1), 0.2, 1e-9);  // 1 - 0.8
  EXPECT_NEAR(cg.EdgeWeight(0, 3, -1), 0.8, 1e-9);  // 1 - 0.2
  EXPECT_NEAR(cg.EdgeWeight(1, 4, -1), 0.0, 1e-9);  // 1 - 1.0
  // Concept-concept distances: 1 - cos.
  EXPECT_NEAR(cg.EdgeWeight(2, 4, -1), 0.0, 1e-9);  // same axis
  EXPECT_NEAR(cg.EdgeWeight(3, 4, -1), 1.0, 1e-9);  // orthogonal
  // No edge between candidates of the same mention.
  EXPECT_FALSE(cg.HasEdge(2, 3));
}

TEST(TreeCoverWalkthroughTest, MstAndDecompositionAtGenerousBound) {
  Walkthrough w;
  CoherenceGraph cg = w.BuildGraph();
  TreeCoverSolver solver;
  TreeCoverStats stats;
  Result<TreeCover> cover = solver.Solve(cg, /*bound=*/2.0, &stats);
  ASSERT_TRUE(cover.ok()) << cover.status();

  // MST over {r, A1, A2, B1}: edges r-B1 (0), B1-A1 (0), r-A1 (0.2),
  // A1... Kruskal picks the three cheapest acyclic: r-B1 (0), A1-B1 (0),
  // r-A2 contracted from m0-A2 (0.8) [A2's only light connection is via
  // its mention edge; A2-B1 costs 1.0 > 0.8].
  EXPECT_EQ(stats.mst_edges, 3);
  EXPECT_EQ(stats.subtrees, 0);  // total weight 0.8 <= B = 2

  // Decomposition: B1's component (B1 + A1) hangs off m1 (weight-0 star
  // edge); A2 hangs off m0 (0.8).  Total cover cost = max(0.8, 0.0) = 0.8.
  EXPECT_NEAR(cover->Cost(), 0.8, 1e-9);

  // Every node covered (Definition 6).
  std::set<int> covered;
  for (const CoverTree& t : cover->trees) {
    covered.insert(t.nodes.begin(), t.nodes.end());
  }
  EXPECT_EQ(covered.size(), 5u);
}

TEST(TreeCoverWalkthroughTest, PruningDisconnectsAtTightBound) {
  Walkthrough w;
  CoherenceGraph cg = w.BuildGraph();
  TreeCoverSolver solver;
  // B = 0.5 prunes m0-A2 (0.8) and A2-B1 (1.0): A2 is disconnected from
  // the contracted root -> the paper's failure warning.
  Result<TreeCover> cover = solver.Solve(cg, 0.5);
  ASSERT_FALSE(cover.ok());
  EXPECT_TRUE(cover.status().IsBoundTooSmall());

  // B = 0.9 keeps m0-A2: success again.
  Result<TreeCover> ok = solver.Solve(cg, 0.9);
  ASSERT_TRUE(ok.ok());
  EXPECT_NEAR(ok->Cost(), 0.8, 1e-9);
}

TEST(TreeCoverWalkthroughTest, MinimalBoundIsThePrunedEdge) {
  Walkthrough w;
  CoherenceGraph cg = w.BuildGraph();
  TreeCoverSolver solver;
  Result<std::pair<double, TreeCover>> minimal =
      SolveWithMinimalBound(solver, cg, /*initial_bound=*/2.0,
                            /*tolerance=*/0.001);
  ASSERT_TRUE(minimal.ok());
  // Feasibility flips exactly at the 0.8 edge (m0-A2): B* ~ 0.8.
  EXPECT_NEAR(minimal->first, 0.8, 0.01);
}

}  // namespace
}  // namespace core
}  // namespace tenet
