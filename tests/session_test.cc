// Streaming sessions (DESIGN.md §13): the multi-turn generator's
// determinism and gold hygiene, the SessionContext's entity memory
// (re-ranking, short-form resolution, ambiguity poisoning), and the
// end-to-end claim — replaying sessions through the context scores at
// least as well as linking every turn in isolation.
#include <string>
#include <unordered_set>

#include <gtest/gtest.h>

#include "baselines/tenet_linker.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "datasets/session_generator.h"
#include "datasets/world.h"
#include "eval/harness.h"
#include "figure_one_world.h"
#include "serving/session.h"

namespace tenet {
namespace serving {
namespace {

const datasets::SyntheticWorld& World() {
  static const datasets::SyntheticWorld* world =
      new datasets::SyntheticWorld(datasets::BuildWorld());
  return *world;
}

datasets::SessionDataset GenerateSessions(uint64_t seed = 4242) {
  datasets::SessionGenerator generator(&World().kb_world);
  datasets::SessionSpec spec;
  spec.seed = seed;
  Rng rng(77);
  return generator.Generate(spec, rng);
}

TEST(SessionGeneratorTest, DeterministicFromSeed) {
  datasets::SessionDataset a = GenerateSessions();
  datasets::SessionDataset b = GenerateSessions();
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (size_t s = 0; s < a.sessions.size(); ++s) {
    ASSERT_EQ(a.sessions[s].turns.size(), b.sessions[s].turns.size());
    for (size_t t = 0; t < a.sessions[s].turns.size(); ++t) {
      EXPECT_EQ(a.sessions[s].turns[t].text, b.sessions[s].turns[t].text);
      EXPECT_EQ(a.sessions[s].turns[t].id, b.sessions[s].turns[t].id);
    }
  }
  datasets::SessionDataset other = GenerateSessions(4243);
  bool any_diff = false;
  for (size_t s = 0; s < a.sessions.size(); ++s) {
    for (size_t t = 0; t < a.sessions[s].turns.size(); ++t) {
      if (a.sessions[s].turns[t].text != other.sessions[s].turns[t].text) {
        any_diff = true;
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(SessionGeneratorTest, ShapeAndGoldHygiene) {
  datasets::SessionDataset sessions = GenerateSessions();
  datasets::SessionSpec spec;
  EXPECT_EQ(static_cast<int>(sessions.sessions.size()), spec.num_sessions);
  for (const datasets::Session& session : sessions.sessions) {
    EXPECT_EQ(static_cast<int>(session.turns.size()),
              spec.turns_per_session);
    for (const datasets::Document& turn : session.turns) {
      EXPECT_FALSE(turn.text.empty()) << turn.id;
      EXPECT_FALSE(turn.gold_entities.empty()) << turn.id;
      // Per-surface gold must be unambiguous within a turn (the scorer
      // keys by lowered surface).
      std::unordered_set<std::string> surfaces;
      for (const datasets::GoldEntityLink& gold : turn.gold_entities) {
        EXPECT_TRUE(surfaces.insert(AsciiToLower(gold.surface)).second)
            << turn.id << ": duplicate gold surface " << gold.surface;
      }
    }
  }
}

TEST(SessionGeneratorTest, FlattenPreservesOrderAndCount) {
  datasets::SessionDataset sessions = GenerateSessions();
  datasets::Dataset flat = sessions.Flatten();
  EXPECT_EQ(static_cast<int>(flat.documents.size()), sessions.TotalTurns());
  EXPECT_FALSE(flat.has_relation_gold);
  size_t i = 0;
  for (const datasets::Session& session : sessions.sessions) {
    for (const datasets::Document& turn : session.turns) {
      ASSERT_LT(i, flat.documents.size());
      EXPECT_EQ(flat.documents[i].id, turn.id);
      ++i;
    }
  }
}

// ---- SessionContext memory --------------------------------------------

TEST(SessionContextTest, FirstTurnIsUntouched) {
  testing_support::FigureOneWorld world =
      testing_support::BuildFigureOneWorld();
  SessionContext context;
  core::LinkingResult result;
  SessionTurnStats stats = context.ApplySessionCoherence(world.kb, &result);
  EXPECT_EQ(stats.relinked_to_memory, 0);
  EXPECT_EQ(stats.isolated_resolved, 0);
}

TEST(SessionContextTest, RemembersEntitiesAndRelinksAmbiguousAlias) {
  // Turn 1 resolves the *professor* Michael Jordan; a later turn's
  // context-free link of the shared alias goes to the popular player —
  // session memory must flip it back.
  testing_support::FigureOneWorld world =
      testing_support::BuildFigureOneWorld();
  SessionContext context;

  core::LinkingResult turn1;
  core::Mention m1;
  m1.surface = "Michael Jordan";
  m1.kind = core::Mention::Kind::kNoun;
  turn1.mentions.mentions.push_back(m1);
  core::LinkedConcept link1;
  link1.mention_id = 0;
  link1.surface = "Michael Jordan";
  link1.kind = core::Mention::Kind::kNoun;
  link1.concept_ref = kb::ConceptRef::Entity(world.professor);
  link1.prior = 0.3;
  turn1.links.push_back(link1);
  context.ObserveTurn(turn1);

  core::LinkingResult turn2;
  core::Mention m2;
  m2.surface = "Michael Jordan";
  m2.kind = core::Mention::Kind::kNoun;
  turn2.mentions.mentions.push_back(m2);
  core::LinkedConcept link2 = link1;
  link2.concept_ref = kb::ConceptRef::Entity(world.player);  // prior wins
  link2.prior = 0.7;
  turn2.links.push_back(link2);

  SessionTurnStats stats = context.ApplySessionCoherence(world.kb, &turn2);
  EXPECT_EQ(stats.relinked_to_memory, 1);
  ASSERT_EQ(turn2.links.size(), 1u);
  EXPECT_EQ(turn2.links[0].concept_ref.id, world.professor);
}

TEST(SessionContextTest, ResolvesIsolatedShortFormFromMemory) {
  testing_support::FigureOneWorld world =
      testing_support::BuildFigureOneWorld();
  SessionContext context;

  core::LinkingResult turn1;
  core::Mention m1;
  m1.surface = "Michael Jordan";
  m1.kind = core::Mention::Kind::kNoun;
  turn1.mentions.mentions.push_back(m1);
  core::LinkedConcept link1;
  link1.mention_id = 0;
  link1.surface = "Michael Jordan";
  link1.kind = core::Mention::Kind::kNoun;
  link1.concept_ref = kb::ConceptRef::Entity(world.professor);
  link1.prior = 0.3;
  turn1.links.push_back(link1);
  context.ObserveTurn(turn1);

  // Turn 2 mentions bare "Jordan" — not a KB alias, so it arrives
  // isolated; the session short-form memory must resolve it.
  core::LinkingResult turn2;
  core::Mention m2;
  m2.surface = "Jordan";
  m2.kind = core::Mention::Kind::kNoun;
  turn2.mentions.mentions.push_back(m2);
  turn2.isolated_mentions.push_back(0);

  SessionTurnStats stats = context.ApplySessionCoherence(world.kb, &turn2);
  EXPECT_EQ(stats.isolated_resolved, 1);
  EXPECT_TRUE(turn2.isolated_mentions.empty());
  ASSERT_EQ(turn2.links.size(), 1u);
  EXPECT_EQ(turn2.links[0].concept_ref.id, world.professor);
}

TEST(SessionContextTest, AmbiguousMemoryIsPoisonedNotGuessed) {
  // The same surface observed with two entities in one conversation must
  // never be applied from memory.
  testing_support::FigureOneWorld world =
      testing_support::BuildFigureOneWorld();
  SessionContext context;

  for (kb::EntityId entity : {world.professor, world.player}) {
    core::LinkingResult turn;
    core::Mention m;
    m.surface = "Michael Jordan";
    m.kind = core::Mention::Kind::kNoun;
    turn.mentions.mentions.push_back(m);
    core::LinkedConcept link;
    link.mention_id = 0;
    link.surface = "Michael Jordan";
    link.kind = core::Mention::Kind::kNoun;
    link.concept_ref = kb::ConceptRef::Entity(entity);
    link.prior = 0.5;
    turn.links.push_back(link);
    context.ObserveTurn(turn);
  }

  core::LinkingResult probe;
  core::Mention m;
  m.surface = "Jordan";
  m.kind = core::Mention::Kind::kNoun;
  probe.mentions.mentions.push_back(m);
  probe.isolated_mentions.push_back(0);
  SessionTurnStats stats = context.ApplySessionCoherence(world.kb, &probe);
  EXPECT_EQ(stats.isolated_resolved, 0);
  EXPECT_EQ(probe.isolated_mentions.size(), 1u);  // stays isolated
}

TEST(SessionContextTest, MemoryOffIsANoOp) {
  testing_support::FigureOneWorld world =
      testing_support::BuildFigureOneWorld();
  SessionOptions options;
  options.apply_entity_memory = false;
  SessionContext context(options);

  core::LinkingResult turn1;
  core::Mention m1;
  m1.surface = "Michael Jordan";
  m1.kind = core::Mention::Kind::kNoun;
  turn1.mentions.mentions.push_back(m1);
  core::LinkedConcept link1;
  link1.mention_id = 0;
  link1.surface = "Michael Jordan";
  link1.kind = core::Mention::Kind::kNoun;
  link1.concept_ref = kb::ConceptRef::Entity(world.professor);
  turn1.links.push_back(link1);
  context.ObserveTurn(turn1);

  core::LinkingResult turn2;
  core::Mention m2;
  m2.surface = "Jordan";
  m2.kind = core::Mention::Kind::kNoun;
  turn2.mentions.mentions.push_back(m2);
  turn2.isolated_mentions.push_back(0);
  SessionTurnStats stats = context.ApplySessionCoherence(world.kb, &turn2);
  EXPECT_EQ(stats.isolated_resolved, 0);
  EXPECT_EQ(turn2.isolated_mentions.size(), 1u);
}

// perfbench reads the session's cache statistics without a null check, so
// the accessor must hold even for a session configured without a cache.
TEST(SessionContextTest, SimilarityCacheAccessorIsNeverNull) {
  SessionOptions no_cache;
  no_cache.similarity_cache_bytes = 0;
  SessionContext context(no_cache);
  ASSERT_NE(context.similarity_cache(), nullptr);
  EXPECT_EQ(context.similarity_cache()->GetStats().hits, 0);
  EXPECT_EQ(context.similarity_cache()->GetStats().misses, 0);
}

// ---- End-to-end replay ------------------------------------------------

TEST(SessionReplayTest, SessionStateImprovesOverIsolation) {
  baselines::TenetLinker tenet(
      baselines::BaselineSubstrate{&World().kb(), &World().embeddings,
                                   &World().gazetteer(), {}, {}});
  datasets::SessionDataset sessions = GenerateSessions();

  eval::SessionEvalOptions with_context;
  eval::SystemScores contextual =
      eval::EvaluateSessions(tenet, World().kb(), sessions, with_context);
  eval::SessionEvalOptions isolated;
  isolated.use_session_context = false;
  eval::SystemScores baseline =
      eval::EvaluateSessions(tenet, World().kb(), sessions, isolated);

  EXPECT_EQ(contextual.CrashedDocuments(), 0);
  EXPECT_EQ(baseline.CrashedDocuments(), 0);
  // The session layer must actually intervene, and never score worse than
  // linking each turn blind.
  EXPECT_GT(contextual.session_relinked + contextual.session_isolated_resolved,
            0);
  EXPECT_GE(contextual.entity_linking.F1(), baseline.entity_linking.F1());
}

TEST(SessionReplayTest, ReplayIsDeterministic) {
  baselines::TenetLinker tenet(
      baselines::BaselineSubstrate{&World().kb(), &World().embeddings,
                                   &World().gazetteer(), {}, {}});
  datasets::SessionDataset sessions = GenerateSessions();
  eval::SystemScores a =
      eval::EvaluateSessions(tenet, World().kb(), sessions);
  eval::SystemScores b =
      eval::EvaluateSessions(tenet, World().kb(), sessions);
  EXPECT_EQ(a.entity_linking.F1(), b.entity_linking.F1());
  EXPECT_EQ(a.session_relinked, b.session_relinked);
  EXPECT_EQ(a.session_isolated_resolved, b.session_isolated_resolved);
}

}  // namespace
}  // namespace serving
}  // namespace tenet
