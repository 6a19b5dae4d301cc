#include "core/tree_cover.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "core/canopy.h"
#include "core/pipeline.h"
#include "figure_one_world.h"
#include "text/extraction.h"

namespace tenet {
namespace core {
namespace {

constexpr const char* kFigureOneText =
    "Michael Jordan studies artificial intelligence and machine learning. "
    "He was awarded as the Fellow of the AAAS. "
    "He visited Brooklyn in April 2019.";

CoherenceGraph BuildFigureOneGraph(
    const testing_support::FigureOneWorld& world) {
  text::Extractor extractor(&world.gazetteer);
  MentionSet mentions =
      BuildMentionSet(extractor.ExtractFromText(kFigureOneText),
                      &world.gazetteer);
  CoherenceGraphBuilder builder(&world.kb, &world.embeddings);
  return builder.Build(std::move(mentions));
}

TEST(CoherenceGraphTest, FigureOneStructure) {
  testing_support::FigureOneWorld world = testing_support::BuildFigureOneWorld();
  CoherenceGraph cg = BuildFigureOneGraph(world);

  ASSERT_GT(cg.num_mentions(), 0);
  ASSERT_GT(cg.num_concept_nodes(), 0);

  // "Michael Jordan" has two candidates, ordered player-first by prior.
  int mj = -1;
  for (int m = 0; m < cg.num_mentions(); ++m) {
    if (cg.mentions().mention(m).surface == "Michael Jordan") mj = m;
  }
  ASSERT_GE(mj, 0);
  const std::vector<int>& candidates = cg.ConceptNodesOfMention(mj);
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(cg.concept_node(candidates[0]).ref.id, world.player);
  EXPECT_NEAR(cg.concept_node(candidates[0]).prior, 0.7, 1e-9);
  // Mention-candidate edge weight = 1 - prior (Eq. 1).
  EXPECT_NEAR(cg.EdgeWeight(mj, candidates[0], -1.0), 0.3, 1e-9);
  EXPECT_NEAR(cg.EdgeWeight(mj, candidates[1], -1.0), 0.7, 1e-9);

  // No edge between two candidates of the same mention.
  EXPECT_FALSE(cg.HasEdge(candidates[0], candidates[1]));

  // Every concept node belongs to its mention.
  for (int m = 0; m < cg.num_mentions(); ++m) {
    for (int node : cg.ConceptNodesOfMention(m)) {
      EXPECT_EQ(cg.MentionOfNode(node), m);
      EXPECT_FALSE(cg.IsMentionNode(node));
    }
  }
}

TEST(CoherenceGraphTest, SentenceRulesForPredicateEdges) {
  testing_support::FigureOneWorld world = testing_support::BuildFigureOneWorld();
  CoherenceGraph cg = BuildFigureOneGraph(world);

  // Locate the relational mentions "study" (sentence 0) and "visit"
  // (sentence 2).
  int study = -1;
  int visit = -1;
  for (int m = 0; m < cg.num_mentions(); ++m) {
    const Mention& mention = cg.mentions().mention(m);
    if (!mention.is_relational()) continue;
    if (mention.surface == "study") study = m;
    if (mention.surface == "visit") visit = m;
  }
  ASSERT_GE(study, 0);
  ASSERT_GE(visit, 0);

  // Predicates of different sentences are never connected (Eq. 4).
  for (int u : cg.ConceptNodesOfMention(study)) {
    for (int v : cg.ConceptNodesOfMention(visit)) {
      EXPECT_FALSE(cg.HasEdge(u, v));
    }
  }

  // Entity-predicate edges require a shared sentence (Eq. 5): candidates of
  // "Brooklyn" (sentence 2) connect to "visit" but not to "study".
  int brooklyn = -1;
  for (int m = 0; m < cg.num_mentions(); ++m) {
    if (cg.mentions().mention(m).surface == "Brooklyn") brooklyn = m;
  }
  ASSERT_GE(brooklyn, 0);
  for (int u : cg.ConceptNodesOfMention(brooklyn)) {
    for (int v : cg.ConceptNodesOfMention(visit)) {
      EXPECT_TRUE(cg.HasEdge(u, v));
    }
    for (int v : cg.ConceptNodesOfMention(study)) {
      EXPECT_FALSE(cg.HasEdge(u, v));
    }
  }
}

TEST(TreeCoverTest, SolveSucceedsAtPaperBound) {
  testing_support::FigureOneWorld world = testing_support::BuildFigureOneWorld();
  CoherenceGraph cg = BuildFigureOneGraph(world);
  TreeCoverSolver solver;
  double bound = cg.num_mentions();  // B = |M|
  TreeCoverStats stats;
  Result<TreeCover> cover = solver.Solve(cg, bound, &stats);
  ASSERT_TRUE(cover.ok()) << cover.status();

  // One tree per mention, rooted correctly (Definition 6).
  ASSERT_EQ(static_cast<int>(cover->trees.size()), cg.num_mentions());
  for (int m = 0; m < cg.num_mentions(); ++m) {
    EXPECT_EQ(cover->trees[m].root, m);
    EXPECT_FALSE(cover->trees[m].nodes.empty());
    EXPECT_EQ(cover->trees[m].nodes.front(), m);
  }

  // Cover cost bounded by 4B (Lemma 4.2).
  EXPECT_LE(cover->Cost(), 4.0 * bound + 1e-9);

  // Every graph node appears in at least one tree (Definition 6).
  std::set<int> covered;
  for (const CoverTree& t : cover->trees) {
    covered.insert(t.nodes.begin(), t.nodes.end());
  }
  EXPECT_EQ(static_cast<int>(covered.size()), cg.num_nodes());
}

TEST(TreeCoverTest, TinyBoundYieldsFailureWarning) {
  testing_support::FigureOneWorld world = testing_support::BuildFigureOneWorld();
  CoherenceGraph cg = BuildFigureOneGraph(world);
  TreeCoverSolver solver;
  Result<TreeCover> cover = solver.Solve(cg, 1e-6);
  ASSERT_FALSE(cover.ok());
  EXPECT_TRUE(cover.status().IsBoundTooSmall());
}

TEST(TreeCoverTest, InvalidBoundRejected) {
  testing_support::FigureOneWorld world = testing_support::BuildFigureOneWorld();
  CoherenceGraph cg = BuildFigureOneGraph(world);
  TreeCoverSolver solver;
  EXPECT_TRUE(solver.Solve(cg, 0.0).status().IsInvalidArgument());
  EXPECT_TRUE(solver.Solve(cg, -1.0).status().IsInvalidArgument());
}

TEST(TreeCoverTest, IsolatedMentionsBecomeSingletons) {
  testing_support::FigureOneWorld world = testing_support::BuildFigureOneWorld();
  text::Extractor extractor(&world.gazetteer);
  // "April 2019" is a fresh phrase with no KB candidates (the extractor
  // absorbs the trailing number into the capitalized run).
  MentionSet mentions = BuildMentionSet(
      extractor.ExtractFromText("He visited Brooklyn in April 2019."),
      &world.gazetteer);
  CoherenceGraphBuilder builder(&world.kb, &world.embeddings);
  CoherenceGraph cg = builder.Build(std::move(mentions));

  int april = -1;
  for (int m = 0; m < cg.num_mentions(); ++m) {
    if (cg.mentions().mention(m).surface == "April 2019") april = m;
  }
  ASSERT_GE(april, 0);
  EXPECT_TRUE(cg.ConceptNodesOfMention(april).empty());

  TreeCoverSolver solver;
  Result<TreeCover> cover = solver.Solve(cg, cg.num_mentions());
  ASSERT_TRUE(cover.ok()) << cover.status();
  EXPECT_TRUE(cover->trees[april].edges.empty());
  EXPECT_EQ(cover->trees[april].nodes, std::vector<int>{april});
}

TEST(TreeCoverTest, MinimalBoundSearch) {
  testing_support::FigureOneWorld world = testing_support::BuildFigureOneWorld();
  CoherenceGraph cg = BuildFigureOneGraph(world);
  TreeCoverSolver solver;
  Result<std::pair<double, TreeCover>> minimal =
      SolveWithMinimalBound(solver, cg, /*initial_bound=*/1.0);
  ASSERT_TRUE(minimal.ok()) << minimal.status();
  double b_star = minimal->first;
  EXPECT_GT(b_star, 0.0);
  // Solving at the found bound succeeds; at 60% of it fails (the search
  // tolerance is 1%).
  EXPECT_TRUE(solver.Solve(cg, b_star).ok());
  Result<TreeCover> below = solver.Solve(cg, 0.6 * b_star);
  if (!below.ok()) {
    EXPECT_TRUE(below.status().IsBoundTooSmall());
  }
  // Cost at minimal bound also satisfies the 4B guarantee.
  EXPECT_LE(minimal->second.Cost(), 4.0 * b_star + 1e-9);
}

TEST(TreeCoverTest, CostMonotoneUnderGenerousBound) {
  testing_support::FigureOneWorld world = testing_support::BuildFigureOneWorld();
  CoherenceGraph cg = BuildFigureOneGraph(world);
  TreeCoverSolver solver;
  Result<TreeCover> tight = solver.Solve(cg, cg.num_mentions());
  Result<TreeCover> loose = solver.Solve(cg, 10.0 * cg.num_mentions());
  ASSERT_TRUE(tight.ok());
  ASSERT_TRUE(loose.ok());
  EXPECT_GT(loose->TotalEdges(), 0);
}

}  // namespace
}  // namespace core
}  // namespace tenet
