// Direct tests of Algorithm 5 on hand-built micro-worlds: each scenario
// isolates one pruning strategy or decision rule.
#include "core/disambiguator.h"

#include <gtest/gtest.h>

#include "core/canopy.h"
#include "core/coherence_graph.h"
#include "core/tree_cover.h"
#include "embedding/embedding_store.h"
#include "kb/knowledge_base.h"

namespace tenet {
namespace core {
namespace {

// A tiny configurable world: entities laid out on explicit embedding axes
// so edge weights are fully controlled by the test.
struct MicroWorld {
  kb::KnowledgeBase kb;
  embedding::EmbeddingStore embeddings{4, 0, 0};

  // Entity pinned to an axis with the given component.
  kb::EntityId AddEntity(const std::string& label, int axis,
                         float component, double popularity = 1.0) {
    return kb.AddEntity(label, kb::EntityType::kOther, axis, popularity);
  }

  void Finish(const std::vector<std::pair<int, float>>& axes) {
    kb.Finalize();
    embeddings =
        embedding::EmbeddingStore(4, kb.num_entities(), kb.num_predicates());
    for (size_t i = 0; i < axes.size(); ++i) {
      auto v = embeddings.MutableVector(
          kb::ConceptRef::Entity(static_cast<kb::EntityId>(i)));
      v[axes[i].first] = axes[i].second;
    }
    embeddings.Finalize();
  }
};

// Builds a mention set of singleton noun mentions with the given surfaces.
MentionSet SingletonMentions(const std::vector<std::string>& surfaces) {
  MentionSet set;
  for (const std::string& surface : surfaces) {
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
  return set;
}

TEST(DisambiguatorTest, PriorsDecideWithoutCoherence) {
  // One mention, two candidates, no other mention to cohere with: the
  // higher-prior candidate must win (its edge is lighter).
  MicroWorld world;
  kb::EntityId popular = world.AddEntity("Popular Sense", 0, 1.0f, 7.0);
  kb::EntityId rare = world.AddEntity("Rare Sense", 1, 1.0f, 3.0);
  world.kb.AddEntityAlias(popular, "Jordan", 7.0);
  world.kb.AddEntityAlias(rare, "Jordan", 3.0);
  world.Finish({{0, 1.0f}, {1, 1.0f}});

  CoherenceGraphBuilder builder(&world.kb, &world.embeddings);
  CoherenceGraph cg = builder.Build(SingletonMentions({"Jordan"}));
  TreeCover cover = TreeCoverSolver().Solve(cg, 10.0).value();
  DisambiguationResult gamma = Disambiguator().Run(cg, cover);

  ASSERT_TRUE(gamma.IsLinked(0));
  EXPECT_EQ(cg.concept_node(gamma.node_of_mention[0]).ref.id, popular);
}

TEST(DisambiguatorTest, CoherenceOverridesPrior) {
  // Mention "Jordan" (popular sense on axis 1, rare sense on axis 0) next
  // to an unambiguous mention whose entity also sits on axis 0: the
  // chain through the coherent rare sense must win.
  MicroWorld world;
  kb::EntityId rare = world.AddEntity("Rare Sense", 0, 1.0f, 3.0);
  kb::EntityId popular = world.AddEntity("Popular Sense", 1, 1.0f, 7.0);
  kb::EntityId anchor = world.AddEntity("Anchor", 0, 1.0f, 1.0);
  world.kb.AddEntityAlias(rare, "Jordan", 3.0);
  world.kb.AddEntityAlias(popular, "Jordan", 7.0);
  world.Finish({{0, 1.0f}, {1, 1.0f}, {0, 1.0f}});

  CoherenceGraphBuilder builder(&world.kb, &world.embeddings);
  CoherenceGraph cg = builder.Build(SingletonMentions({"Jordan", "Anchor"}));
  TreeCover cover = TreeCoverSolver().Solve(cg, 10.0).value();
  DisambiguationResult gamma = Disambiguator().Run(cg, cover);

  ASSERT_TRUE(gamma.IsLinked(0));
  ASSERT_TRUE(gamma.IsLinked(1));
  // Anchor is unambiguous (prior 1 -> edge weight 0), links first, and its
  // d=0 coherence edge to the rare sense vouches for it (strategy 2).
  EXPECT_EQ(cg.concept_node(gamma.node_of_mention[1]).ref.id, anchor);
  EXPECT_EQ(cg.concept_node(gamma.node_of_mention[0]).ref.id, rare);
}

TEST(DisambiguatorTest, OneConceptPerMention) {
  MicroWorld world;
  kb::EntityId a = world.AddEntity("Sense A", 0, 1.0f, 5.0);
  kb::EntityId b = world.AddEntity("Sense B", 0, 1.0f, 5.0);
  world.kb.AddEntityAlias(a, "Word", 5.0);
  world.kb.AddEntityAlias(b, "Word", 5.0);
  world.Finish({{0, 1.0f}, {0, 1.0f}});

  CoherenceGraphBuilder builder(&world.kb, &world.embeddings);
  CoherenceGraph cg = builder.Build(SingletonMentions({"Word"}));
  TreeCover cover = TreeCoverSolver().Solve(cg, 10.0).value();
  DisambiguationResult gamma = Disambiguator().Run(cg, cover);
  // Exactly one of the two equal candidates is selected, never both.
  ASSERT_EQ(gamma.selected_node.size(), 1u);
  EXPECT_EQ(gamma.selected_node[0].first, 0);
}

TEST(DisambiguatorTest, CanopyExclusionSelectsOneReading) {
  // Group with two canopies: {Short1, Short2} and {Short1 x Short2
  // merged}.  All three variants have candidates; exactly one canopy's
  // mentions end up linked.
  MicroWorld world;
  kb::EntityId e1 = world.AddEntity("First", 0, 1.0f, 1.0);
  kb::EntityId e2 = world.AddEntity("Second", 0, 1.0f, 1.0);
  kb::EntityId merged = world.AddEntity("First and Second", 0, 1.0f, 1.0);
  (void)e1;
  (void)e2;
  (void)merged;
  world.Finish({{0, 1.0f}, {0, 1.0f}, {0, 1.0f}});

  MentionSet set;
  auto add_mention = [&set](const std::string& surface, int group) {
    Mention mention;
    mention.kind = Mention::Kind::kNoun;
    mention.surface = surface;
    mention.sentences = {0};
    mention.group = group;
    set.mentions.push_back(std::move(mention));
    return set.num_mentions() - 1;
  };
  int short1 = add_mention("First", 0);
  int short2 = add_mention("Second", 0);
  int longm = add_mention("First and Second", 0);
  MentionGroup group;
  group.members = {short1, short2, longm};
  group.short_mentions = {short1, short2};
  group.canopies = {Canopy{{short1, short2}}, Canopy{{longm}}};
  set.groups.push_back(group);

  CoherenceGraphBuilder builder(&world.kb, &world.embeddings);
  CoherenceGraph cg = builder.Build(std::move(set));
  TreeCover cover = TreeCoverSolver().Solve(cg, 10.0).value();
  DisambiguationResult gamma = Disambiguator().Run(cg, cover);

  ASSERT_EQ(gamma.group_resolved.size(), 1u);
  EXPECT_TRUE(gamma.group_resolved[0]);
  int winner = gamma.winning_canopy[0];
  ASSERT_TRUE(winner == 0 || winner == 1);
  if (winner == 0) {
    EXPECT_TRUE(gamma.IsLinked(short1));
    EXPECT_TRUE(gamma.IsLinked(short2));
    EXPECT_FALSE(gamma.IsLinked(longm));
  } else {
    EXPECT_TRUE(gamma.IsLinked(longm));
    EXPECT_FALSE(gamma.IsLinked(short1));
    EXPECT_FALSE(gamma.IsLinked(short2));
  }
  // The informative tie-break prefers the merged reading here (all edge
  // weights are 0).
  EXPECT_EQ(winner, 1);
}

TEST(DisambiguatorTest, NoCandidatesMeansNoLinks) {
  MicroWorld world;
  world.AddEntity("Unrelated", 0, 1.0f, 1.0);
  world.Finish({{0, 1.0f}});
  CoherenceGraphBuilder builder(&world.kb, &world.embeddings);
  CoherenceGraph cg = builder.Build(SingletonMentions({"Unknown Phrase"}));
  TreeCover cover = TreeCoverSolver().Solve(cg, 10.0).value();
  DisambiguationResult gamma = Disambiguator().Run(cg, cover);
  EXPECT_TRUE(gamma.selected_node.empty());
  EXPECT_FALSE(gamma.group_resolved[0]);
  EXPECT_EQ(gamma.winning_canopy[0], -1);
}

TEST(DisambiguatorTest, IsolatedMentionLinksItsOwnCandidate) {
  // Two far-apart mentions (orthogonal axes): sparse coherence must not
  // prevent either from linking to its own unambiguous candidate.
  MicroWorld world;
  kb::EntityId a = world.AddEntity("Alpha", 0, 1.0f, 1.0);
  kb::EntityId b = world.AddEntity("Beta", 1, 1.0f, 1.0);
  world.Finish({{0, 1.0f}, {1, 1.0f}});
  CoherenceGraphBuilder builder(&world.kb, &world.embeddings);
  CoherenceGraph cg = builder.Build(SingletonMentions({"Alpha", "Beta"}));
  TreeCover cover = TreeCoverSolver().Solve(cg, 10.0).value();
  DisambiguationResult gamma = Disambiguator().Run(cg, cover);
  ASSERT_TRUE(gamma.IsLinked(0));
  ASSERT_TRUE(gamma.IsLinked(1));
  EXPECT_EQ(cg.concept_node(gamma.node_of_mention[0]).ref.id, a);
  EXPECT_EQ(cg.concept_node(gamma.node_of_mention[1]).ref.id, b);
}

}  // namespace
}  // namespace core
}  // namespace tenet
