// Tests of the ablation switches and pipeline options (DESIGN.md §7):
// they must change behaviour in the documented direction and never break
// the structural invariants.
#include <gtest/gtest.h>

#include "baselines/tenet_linker.h"
#include "datasets/corpus_generator.h"
#include "datasets/world.h"
#include "eval/harness.h"
#include "figure_one_world.h"

namespace tenet {
namespace core {
namespace {

const datasets::SyntheticWorld& World() {
  static const datasets::SyntheticWorld* world =
      new datasets::SyntheticWorld(datasets::BuildWorld());
  return *world;
}

datasets::Dataset SmallNews(uint64_t seed) {
  datasets::CorpusGenerator gen(&World().kb_world);
  Rng rng(seed);
  datasets::DatasetSpec spec = datasets::NewsSpec();
  spec.num_docs = 8;
  return gen.Generate(spec, rng);
}

baselines::TenetLinker MakeTenet(TenetOptions options = {}) {
  baselines::BaselineSubstrate substrate{
      &World().kb(), &World().embeddings, &World().gazetteer(), {}, {}};
  return baselines::TenetLinker(substrate, options);
}

TEST(AblationTest, CanopyDisableRemovesLongVariants) {
  testing_support::FigureOneWorld world =
      testing_support::BuildFigureOneWorld();
  TenetOptions options;
  options.canopy.enable_long_variants = false;
  TenetPipeline tenet(&world.kb, &world.embeddings, &world.gazetteer,
                      options);
  Result<LinkingResult> result = tenet.LinkDocument(
      "He was awarded as the Fellow of the AAAS.");
  ASSERT_TRUE(result.ok());
  for (const Mention& mention : result->mentions.mentions) {
    EXPECT_EQ(mention.surface.find(" of the "), std::string::npos)
        << "long variant generated despite ablation";
  }
  for (const MentionGroup& group : result->mentions.groups) {
    EXPECT_EQ(group.canopies.size(), 1u);
  }
}

TEST(AblationTest, CanopyDisableHurtsLinkingQuality) {
  datasets::Dataset news = SmallNews(41);
  TenetOptions ablated;
  ablated.canopy.enable_long_variants = false;
  eval::SystemScores on = eval::EvaluateEndToEnd(MakeTenet(), news);
  eval::SystemScores off = eval::EvaluateEndToEnd(MakeTenet(ablated), news);
  EXPECT_GT(on.entity_linking.F1(), off.entity_linking.F1());
  EXPECT_GT(on.mention_detection.F1(), off.mention_detection.F1());
}

TEST(AblationTest, PerTreeOrderHurtsLinkingQuality) {
  datasets::Dataset news = SmallNews(42);
  TenetOptions ablated;
  ablated.disambiguator.global_kruskal_order = false;
  eval::SystemScores global = eval::EvaluateEndToEnd(MakeTenet(), news);
  eval::SystemScores per_tree =
      eval::EvaluateEndToEnd(MakeTenet(ablated), news);
  EXPECT_GT(global.entity_linking.F1(), per_tree.entity_linking.F1());
}

TEST(AblationTest, EarlyTerminationIsQualityNeutral) {
  datasets::Dataset news = SmallNews(43);
  TenetOptions ablated;
  ablated.disambiguator.early_termination = false;
  eval::SystemScores on = eval::EvaluateEndToEnd(MakeTenet(), news);
  eval::SystemScores off = eval::EvaluateEndToEnd(MakeTenet(ablated), news);
  EXPECT_EQ(on.entity_linking.tp, off.entity_linking.tp);
  EXPECT_EQ(on.entity_linking.fp, off.entity_linking.fp);
  EXPECT_EQ(on.entity_linking.fn, off.entity_linking.fn);
}

TEST(AblationTest, BoundFactorRobustness) {
  // Tiny bound factors must recover through the failure-warning retry and
  // produce the same links as the default (pruning at feasible bounds is
  // inconsequential on these corpora).
  datasets::Dataset news = SmallNews(44);
  TenetOptions tiny;
  tiny.bound_factor = 0.02;
  eval::SystemScores default_scores =
      eval::EvaluateEndToEnd(MakeTenet(), news);
  eval::SystemScores tiny_scores =
      eval::EvaluateEndToEnd(MakeTenet(tiny), news);
  EXPECT_EQ(tiny_scores.failed_documents, 0);
  EXPECT_NEAR(default_scores.entity_linking.F1(),
              tiny_scores.entity_linking.F1(), 0.05);
}

TEST(AblationTest, TieBreakProtectsLongMentions) {
  testing_support::FigureOneWorld world =
      testing_support::BuildFigureOneWorld();
  TenetOptions no_tie_break;
  no_tie_break.disambiguator.informative_tie_break = false;
  TenetPipeline published(&world.kb, &world.embeddings, &world.gazetteer);
  TenetPipeline ablated(&world.kb, &world.embeddings, &world.gazetteer,
                        no_tie_break);
  const char* text = "He was awarded as the Fellow of the AAAS.";
  Result<LinkingResult> a = published.LinkDocument(text);
  Result<LinkingResult> b = ablated.LinkDocument(text);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto links_long = [](const LinkingResult& r) {
    for (const LinkedConcept& link : r.links) {
      if (link.surface == "Fellow of the AAAS") return true;
    }
    return false;
  };
  EXPECT_TRUE(links_long(*a));
  // Without the tie-break, equal-confidence fragments may win the race;
  // the published configuration must never regress on this document.
  (void)links_long(*b);
}

}  // namespace
}  // namespace core
}  // namespace tenet
