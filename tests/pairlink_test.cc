// The pair-link rung (DESIGN.md §16): rung selection by configuration,
// breaker cap and fault injection, exact per-rung degradation accounting
// through the eval harness, and golden determinism of the greedy sweep
// under a fixed seed.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baselines/pairlink_like.h"
#include "baselines/tenet_linker.h"
#include "common/fault_injection.h"
#include "core/link_context.h"
#include "core/pipeline.h"
#include "datasets/corpus_generator.h"
#include "datasets/world.h"
#include "eval/harness.h"
#include "figure_one_world.h"

namespace tenet {
namespace core {
namespace {

using testing_support::BuildFigureOneWorld;
using testing_support::FigureOneWorld;

constexpr const char* kFigureOneText =
    "Michael Jordan studies artificial intelligence and machine learning. "
    "He was awarded as the Fellow of the AAAS. "
    "He visited Brooklyn in April 2019.";

const datasets::SyntheticWorld& World() {
  static const datasets::SyntheticWorld* world =
      new datasets::SyntheticWorld(datasets::BuildWorld());
  return *world;
}

datasets::Dataset TinyDataset(uint64_t seed, int num_docs = 5) {
  datasets::CorpusGenerator gen(&World().kb_world);
  Rng rng(seed);
  datasets::DatasetSpec spec = datasets::TRex42Spec();
  spec.num_docs = num_docs;
  return gen.Generate(spec, rng);
}

baselines::BaselineSubstrate Substrate() {
  return baselines::BaselineSubstrate{
      &World().kb(), &World().embeddings, &World().gazetteer(), {}, {}};
}

TEST(PairLinkTest, ServeAlwaysForcesThePairLinkRung) {
  FigureOneWorld world = BuildFigureOneWorld();
  TenetOptions options;
  options.pair_link.serve_always = true;
  TenetPipeline tenet(&world.kb, &world.embeddings, &world.gazetteer,
                      options);
  Result<LinkingResult> result = tenet.LinkDocument(kFigureOneText);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->degradation.mode, DegradationInfo::Mode::kPairLink);
  EXPECT_EQ(result->degradation.stages_degraded, 3);
  EXPECT_GT(result->degradation.pairs_confirmed, 0);
  EXPECT_NE(result->degradation.reason.find("forced by configuration"),
            std::string::npos);
  EXPECT_FALSE(result->links.empty());
}

TEST(PairLinkTest, CapToPairLinkContextRoutesToThePairLinkRung) {
  // The serving layer sets cap_to_pair_link when only the cover-solve
  // breaker is open; the pipeline must honor it without a fault.
  FigureOneWorld world = BuildFigureOneWorld();
  TenetPipeline tenet(&world.kb, &world.embeddings, &world.gazetteer);
  LinkContext context;
  context.cap_to_pair_link = true;
  Result<LinkingResult> result = tenet.LinkDocument(kFigureOneText, context);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->degradation.mode, DegradationInfo::Mode::kPairLink);
  EXPECT_EQ(result->degradation.stages_degraded, 3);
  EXPECT_NE(result->degradation.reason.find("circuit breaker"),
            std::string::npos);
}

TEST(PairLinkTest, SeededCoverFaultLandsOnThePairLinkRung) {
  // Mid-pipeline entry: the graph is already built when the cover solver
  // faults, so the sweep reuses its edge weights (stages_degraded == 2).
  FigureOneWorld world = BuildFigureOneWorld();
  TenetPipeline tenet(&world.kb, &world.embeddings, &world.gazetteer);
  FaultInjector faults(41);
  faults.Arm("core/cover_solve", 1.0);
  Result<LinkingResult> result = tenet.LinkDocument(kFigureOneText);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->degradation.mode, DegradationInfo::Mode::kPairLink);
  EXPECT_EQ(result->degradation.stages_degraded, 2);
  EXPECT_GT(faults.FireCount("core/cover_solve"), 0);
}

TEST(PairLinkTest, HarnessAccountsEveryRungExactly) {
  // Exact per-rung accounting under fault injection: every cover solve
  // faults, so every document is served by pair-link — none by priors,
  // none full, none failed.
  datasets::Dataset ds = TinyDataset(81);
  baselines::TenetLinker tenet(Substrate());
  FaultInjector faults(42);
  faults.Arm("core/cover_solve", 1.0);
  eval::SystemScores scores = eval::EvaluateEndToEnd(tenet, ds);
  const int n = static_cast<int>(ds.documents.size());
  EXPECT_EQ(scores.failed_documents, 0);
  EXPECT_EQ(scores.full_documents, 0);
  EXPECT_EQ(scores.degraded_documents, n);
  EXPECT_EQ(scores.pairlink_documents, n);
  EXPECT_EQ(scores.prior_only_documents, 0);
  EXPECT_EQ(scores.pairlink_documents + scores.prior_only_documents,
            scores.degraded_documents);
  EXPECT_EQ(eval::FormatDegradation(scores),
            "full 0 | degraded " + std::to_string(n) + " (pair_link " +
                std::to_string(n) + ", prior_only 0) | failed 0");
  // Degraded answers still score: the sweep links something.
  EXPECT_GT(scores.entity_linking.tp + scores.entity_linking.fp, 0);
}

TEST(PairLinkTest, MixedRungsSumToDegradedDocuments) {
  // An expired budget sends every document to prior-only, where the cover
  // faults above sent them to pair-link.  Either way the rung split must
  // sum to the degraded total.
  datasets::Dataset ds = TinyDataset(82);
  core::TenetOptions options;
  options.deadline_ms = 0.0;
  baselines::TenetLinker tenet(Substrate(), options);
  eval::SystemScores scores = eval::EvaluateEndToEnd(tenet, ds);
  const int n = static_cast<int>(ds.documents.size());
  EXPECT_EQ(scores.degraded_documents, n);
  EXPECT_EQ(scores.pairlink_documents, 0);
  EXPECT_EQ(scores.prior_only_documents, n);
  EXPECT_EQ(scores.pairlink_documents + scores.prior_only_documents,
            scores.degraded_documents);
}

TEST(PairLinkTest, SweepIsDeterministicForAFixedSeed) {
  // Golden determinism: two worlds built from the same seed, the forced
  // pair-link rung over the same corpus — byte-identical link decisions
  // and confirmation counts.
  datasets::Dataset ds = TinyDataset(83);
  core::TenetOptions options;
  options.pair_link.serve_always = true;
  auto run = [&ds, &options]() {
    baselines::TenetLinker tenet(Substrate(), options);
    std::vector<std::string> decisions;
    for (const datasets::Document& doc : ds.documents) {
      Result<LinkingResult> result = tenet.LinkDocument(doc.text);
      if (!result.ok()) {
        decisions.push_back("error: " + result.status().ToString());
        continue;
      }
      EXPECT_EQ(result->degradation.mode, DegradationInfo::Mode::kPairLink);
      std::string row =
          "pairs=" + std::to_string(result->degradation.pairs_confirmed);
      for (const LinkedConcept& link : result->links) {
        row += "|" + link.surface + "->" +
               std::to_string(link.concept_ref.id) +
               (link.concept_ref.is_predicate() ? "P" : "E");
      }
      decisions.push_back(row);
    }
    return decisions;
  };
  std::vector<std::string> first = run();
  std::vector<std::string> second = run();
  EXPECT_EQ(first, second);
  ASSERT_FALSE(first.empty());
  // The sweep confirmed at least one pair somewhere in the corpus.
  bool any_pairs = false;
  for (const std::string& row : first) {
    any_pairs |= row.find("pairs=0") != 0 && row.find("error") != 0;
  }
  EXPECT_TRUE(any_pairs);
}

TEST(PairLinkTest, PairlinkLikeBaselineIsDeterministicToo) {
  datasets::Dataset ds = TinyDataset(84, /*num_docs=*/3);
  auto run = [&ds]() {
    baselines::PairlinkLike linker(Substrate());
    std::vector<std::string> decisions;
    for (const datasets::Document& doc : ds.documents) {
      Result<LinkingResult> result = linker.LinkDocument(doc.text);
      if (!result.ok()) {
        decisions.push_back("error");
        continue;
      }
      std::string row;
      for (const LinkedConcept& link : result->links) {
        row += link.surface + "->" + std::to_string(link.concept_ref.id) +
               ";";
      }
      decisions.push_back(row);
    }
    return decisions;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace core
}  // namespace tenet
