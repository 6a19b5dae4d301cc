// The pipeline's degradation ladder: full tree-cover linking degrades to
// greedy pair-linking (budget remaining) or per-canopy prior-only
// disambiguation (budget gone) on deadline expiry, bound-retry
// exhaustion, or a faulted cover solver — an answer, not an error.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/fault_injection.h"
#include "core/link_context.h"
#include "core/pipeline.h"
#include "figure_one_world.h"
#include "obs/metrics.h"

namespace tenet {
namespace core {
namespace {

using testing_support::BuildFigureOneWorld;
using testing_support::FigureOneWorld;

constexpr const char* kFigureOneText =
    "Michael Jordan studies artificial intelligence and machine learning. "
    "He was awarded as the Fellow of the AAAS. "
    "He visited Brooklyn in April 2019.";

const LinkedConcept* FindLink(const LinkingResult& result,
                              const std::string& surface) {
  for (const LinkedConcept& link : result.links) {
    if (link.surface == surface) return &link;
  }
  return nullptr;
}

int64_t CandidateOverflowCount() {
  return obs::MetricsRegistry::Default()
      ->GetCounter("tenet_input_truncated_total", "",
                   obs::LabelPair("reason", "candidates"))
      ->Value();
}

TEST(DegradationTest, FullRunReportsFullMode) {
  FigureOneWorld world = BuildFigureOneWorld();
  TenetPipeline tenet(&world.kb, &world.embeddings, &world.gazetteer);
  Result<LinkingResult> result = tenet.LinkDocument(kFigureOneText);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->degradation.mode, DegradationInfo::Mode::kFull);
  EXPECT_FALSE(result->degradation.degraded());
  EXPECT_EQ(result->degradation.stages_degraded, 0);
  EXPECT_TRUE(result->degradation.reason.empty());
}

TEST(DegradationTest, ExpiredDeadlineStillReturnsPriorOnlyLinks) {
  // Graceful degradation is an answer, not an error: under an already-
  // expired deadline the document is still served, from priors.
  FigureOneWorld world = BuildFigureOneWorld();
  TenetPipeline tenet(&world.kb, &world.embeddings, &world.gazetteer);
  Result<LinkingResult> result =
      tenet.LinkDocument(kFigureOneText,
                         LinkContext::WithDeadline(Deadline::Expired()));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->degradation.mode, DegradationInfo::Mode::kPriorOnly);
  EXPECT_TRUE(result->degradation.degraded());
  EXPECT_EQ(result->degradation.stages_degraded, 3);
  EXPECT_FALSE(result->degradation.reason.empty());
  EXPECT_FALSE(result->links.empty());

  // Prior-only picks the popular sense: the basketball player (prior 0.7)
  // wins over the professor — exactly the baseline-quality trade-off.
  const LinkedConcept* mj = FindLink(*result, "Michael Jordan");
  ASSERT_NE(mj, nullptr);
  EXPECT_EQ(mj->concept_ref.id, world.player);

  // Unambiguous mentions still link correctly from priors alone.
  const LinkedConcept* brooklyn = FindLink(*result, "Brooklyn");
  ASSERT_NE(brooklyn, nullptr);
  EXPECT_EQ(brooklyn->concept_ref.id, world.brooklyn);

  // Fresh phrases are still reported isolated.
  bool april_isolated = false;
  for (int m : result->isolated_mentions) {
    if (result->mentions.mention(m).surface == "April 2019") {
      april_isolated = true;
    }
  }
  EXPECT_TRUE(april_isolated);
}

TEST(DegradationTest, PriorOnlyLooksUpEachMentionOnce) {
  // Reading selection and assembly share one candidate fetch per mention,
  // so the rung costs the full path's lookups, counts the same candidate
  // overflow, and cannot draw two fault decisions for one mention.
  FigureOneWorld world = BuildFigureOneWorld();
  TenetOptions options;
  // "Michael Jordan" and "study" each have two candidates: both overflow.
  options.graph.max_candidates_per_mention = 1;
  TenetPipeline tenet(&world.kb, &world.embeddings, &world.gazetteer,
                      options);

  int64_t before = CandidateOverflowCount();
  Result<LinkingResult> full = tenet.LinkDocument(kFigureOneText);
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_EQ(full->degradation.mode, DegradationInfo::Mode::kFull);
  const int64_t full_overflow = CandidateOverflowCount() - before;
  EXPECT_GT(full_overflow, 0);

  FaultInjector faults(19);  // installed but never armed: it only counts
  before = CandidateOverflowCount();
  Result<LinkingResult> prior =
      tenet.LinkDocument(kFigureOneText,
                         LinkContext::WithDeadline(Deadline::Expired()));
  ASSERT_TRUE(prior.ok()) << prior.status();
  EXPECT_EQ(prior->degradation.mode, DegradationInfo::Mode::kPriorOnly);
  EXPECT_EQ(faults.HitCount("kb/alias_lookup"),
            prior->mentions.num_mentions());
  EXPECT_EQ(CandidateOverflowCount() - before, full_overflow);
}

TEST(DegradationTest, ExpiredDeadlineViaOptionsBehavesTheSame) {
  FigureOneWorld world = BuildFigureOneWorld();
  TenetOptions options;
  options.deadline_ms = 0.0;  // every call starts already out of budget
  TenetPipeline tenet(&world.kb, &world.embeddings, &world.gazetteer,
                      options);
  Result<LinkingResult> result = tenet.LinkDocument(kFigureOneText);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->degradation.mode, DegradationInfo::Mode::kPriorOnly);
  EXPECT_FALSE(result->links.empty());
}

TEST(DegradationTest, DegradationDisabledTurnsDeadlineIntoError) {
  FigureOneWorld world = BuildFigureOneWorld();
  TenetOptions options;
  options.degrade_to_prior = false;
  TenetPipeline tenet(&world.kb, &world.embeddings, &world.gazetteer,
                      options);
  Result<LinkingResult> result =
      tenet.LinkDocument(kFigureOneText,
                         LinkContext::WithDeadline(Deadline::Expired()));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded());
}

TEST(DegradationTest, FaultedCoverSolverDegradesToPairLink) {
  // With budget remaining, a cover fault lands on the pair-link rung: the
  // coherence graph is already built, so the sweep runs off its cached
  // similarities instead of dropping all the way to priors.
  FigureOneWorld world = BuildFigureOneWorld();
  TenetPipeline tenet(&world.kb, &world.embeddings, &world.gazetteer);
  FaultInjector faults(17);
  faults.Arm("core/cover_solve", 1.0);
  Result<LinkingResult> result = tenet.LinkDocument(kFigureOneText);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->degradation.mode, DegradationInfo::Mode::kPairLink);
  // The graph stage completed; only cover + disambiguation degraded.
  EXPECT_EQ(result->degradation.stages_degraded, 2);
  EXPECT_GT(result->degradation.pairs_confirmed, 0);
  EXPECT_NE(result->degradation.reason.find("injected fault"),
            std::string::npos);
  EXPECT_FALSE(result->links.empty());
  EXPECT_GT(faults.FireCount("core/cover_solve"), 0);
}

TEST(DegradationTest, FaultedCoverSolverWithoutDegradationFailsTheCall) {
  FigureOneWorld world = BuildFigureOneWorld();
  TenetOptions options;
  options.degrade_to_prior = false;
  TenetPipeline tenet(&world.kb, &world.embeddings, &world.gazetteer,
                      options);
  FaultInjector faults(18);
  faults.Arm("core/cover_solve", 1.0);
  Result<LinkingResult> result = tenet.LinkDocument(kFigureOneText);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(DegradationTest, PriorOnlyKeepsCanopyConsistency) {
  // The degraded path must still respect canopies: one consistent
  // segmentation per group, so "Fellow of the AAAS" (prior 1.0 as a long
  // variant) wins over its fragments.
  FigureOneWorld world = BuildFigureOneWorld();
  TenetPipeline tenet(&world.kb, &world.embeddings, &world.gazetteer);
  Result<LinkingResult> result =
      tenet.LinkDocument(kFigureOneText,
                         LinkContext::WithDeadline(Deadline::Expired()));
  ASSERT_TRUE(result.ok()) << result.status();
  const LinkedConcept* fellow = FindLink(*result, "Fellow of the AAAS");
  ASSERT_NE(fellow, nullptr);
  EXPECT_EQ(fellow->concept_ref.id, world.aaas_fellow);
  EXPECT_EQ(FindLink(*result, "Fellow"), nullptr);
  EXPECT_EQ(FindLink(*result, "AAAS"), nullptr);

  // Every selected mention is either linked or isolated, never both.
  for (int m : result->selected_mentions) {
    bool linked = FindLink(*result, result->mentions.mention(m).surface) !=
                  nullptr;
    bool isolated = false;
    for (int iso : result->isolated_mentions) isolated |= iso == m;
    EXPECT_NE(linked, isolated) << "mention " << m;
  }
}

TEST(DegradationTest, DeadlineExceededStatusReportsTheStage) {
  FigureOneWorld world = BuildFigureOneWorld();
  TenetOptions options;
  options.degrade_to_prior = false;
  options.deadline_ms = 0.0;
  TenetPipeline tenet(&world.kb, &world.embeddings, &world.gazetteer,
                      options);
  Result<LinkingResult> result = tenet.LinkDocument(kFigureOneText);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("coherence stage"),
            std::string::npos);
}

TEST(DegradationTest, ModeNamesAreStable) {
  EXPECT_EQ(DegradationModeToString(DegradationInfo::Mode::kFull), "full");
  EXPECT_EQ(DegradationModeToString(DegradationInfo::Mode::kPriorOnly),
            "prior_only");
  EXPECT_EQ(DegradationModeToString(DegradationInfo::Mode::kPairLink),
            "pair_link");
}

TEST(DegradationTest, EmptyDocumentIsFullModeEvenWhenExpired) {
  FigureOneWorld world = BuildFigureOneWorld();
  TenetPipeline tenet(&world.kb, &world.embeddings, &world.gazetteer);
  Result<LinkingResult> result =
      tenet.LinkDocument("", LinkContext::WithDeadline(Deadline::Expired()));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->links.empty());
  EXPECT_FALSE(result->degradation.degraded());
}

}  // namespace
}  // namespace core
}  // namespace tenet
