// Harness-level resilience: with fault injection arming alias-lookup
// failures and a 1ms per-document deadline on the synthetic corpus, the
// batch run must complete every document — degraded answers instead of
// aborts — with per-document degradation accounting and per-document
// failure isolation.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/earl_like.h"
#include "baselines/falcon_like.h"
#include "baselines/kbpearl_like.h"
#include "baselines/mintree_like.h"
#include "baselines/pairlink_like.h"
#include "baselines/qkbfly_like.h"
#include "baselines/tenet_linker.h"
#include "common/dependency_health.h"
#include "common/fault_injection.h"
#include "datasets/corpus_generator.h"
#include "datasets/world.h"
#include "eval/harness.h"
#include "obs/metrics.h"
#include "serving/batch_service.h"

namespace tenet {
namespace eval {
namespace {

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

TEST(ResilienceTest, AliasFaultsAndTightDeadlineAbortNothing) {
  datasets::Dataset ds = TinyDataset(71);
  core::TenetOptions options;
  options.deadline_ms = 1.0;  // far below a typical full-pipeline run
  baselines::TenetLinker tenet(Substrate(), options);

  FaultInjector faults(2024);
  faults.Arm("kb/alias_lookup", 0.3);
  SystemScores scores = EvaluateEndToEnd(tenet, ds);

  // Zero aborted runs: every document is answered, full or degraded.
  EXPECT_EQ(scores.failed_documents, 0);
  EXPECT_TRUE(scores.failures.empty());
  EXPECT_EQ(scores.full_documents + scores.degraded_documents,
            static_cast<int>(ds.documents.size()));
  EXPECT_GT(faults.HitCount("kb/alias_lookup"), 0);
  EXPECT_GT(faults.FireCount("kb/alias_lookup"), 0);
}

TEST(ResilienceTest, FaultScheduleIsSeedReproducible) {
  datasets::Dataset ds = TinyDataset(72);
  core::TenetOptions options;
  options.deadline_ms = 1.0;

  auto run = [&ds, &options](uint64_t seed) {
    baselines::TenetLinker tenet(Substrate(), options);
    FaultInjector faults(seed);
    faults.Arm("kb/alias_lookup", 0.3);
    SystemScores scores = EvaluateEndToEnd(tenet, ds);
    return std::make_tuple(faults.HitCount("kb/alias_lookup"),
                           faults.FireCount("kb/alias_lookup"),
                           scores.failed_documents);
  };
  // Same seed -> identical schedule (hits and fires); the linking work per
  // document is deterministic, only the deadline clock is not.
  auto a = run(7);
  auto b = run(7);
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<2>(a), 0);
  EXPECT_EQ(std::get<2>(b), 0);
}

TEST(ResilienceTest, DegradedDocumentsAreCountedSeparately) {
  datasets::Dataset ds = TinyDataset(73);
  // An expired budget forces every document down the prior-only rung.
  core::TenetOptions options;
  options.deadline_ms = 0.0;
  baselines::TenetLinker tenet(Substrate(), options);
  SystemScores scores = EvaluateEndToEnd(tenet, ds);
  EXPECT_EQ(scores.failed_documents, 0);
  EXPECT_EQ(scores.full_documents, 0);
  EXPECT_EQ(scores.degraded_documents,
            static_cast<int>(ds.documents.size()));
  // Degraded answers still score: priors alone link something.
  EXPECT_GT(scores.entity_linking.tp + scores.entity_linking.fp, 0);
  EXPECT_EQ(scores.prior_only_documents,
            static_cast<int>(ds.documents.size()));
  EXPECT_EQ(scores.pairlink_documents, 0);
  EXPECT_EQ(FormatDegradation(scores),
            "full 0 | degraded " + std::to_string(ds.documents.size()) +
                " (pair_link 0, prior_only " +
                std::to_string(ds.documents.size()) + ") | failed 0");
}

TEST(ResilienceTest, WithoutFaultsEveryDocumentIsFull) {
  datasets::Dataset ds = TinyDataset(74);
  baselines::TenetLinker tenet(Substrate());
  SystemScores scores = EvaluateEndToEnd(tenet, ds);
  EXPECT_EQ(scores.failed_documents, 0);
  EXPECT_EQ(scores.degraded_documents, 0);
  EXPECT_EQ(scores.full_documents, static_cast<int>(ds.documents.size()));
}

TEST(ResilienceTest, FailingDocumentsAreRecordedAndTheRunContinues) {
  datasets::Dataset ds = TinyDataset(75);
  // Degradation off + a solver faulted on every call: each document fails,
  // but each failure is isolated and recorded with its doc id.
  core::TenetOptions options;
  options.degrade_to_prior = false;
  baselines::TenetLinker tenet(Substrate(), options);
  FaultInjector faults(31);
  faults.Arm("core/cover_solve", 1.0);
  SystemScores scores = EvaluateEndToEnd(tenet, ds);
  EXPECT_EQ(scores.failed_documents, static_cast<int>(ds.documents.size()));
  ASSERT_EQ(scores.failures.size(), ds.documents.size());
  for (size_t i = 0; i < scores.failures.size(); ++i) {
    EXPECT_EQ(scores.failures[i].doc_id, ds.documents[i].id);
    EXPECT_EQ(scores.failures[i].status.code(), StatusCode::kInternal);
  }
}

TEST(ResilienceTest, SingleFaultedDocumentDoesNotPoisonTheBatch) {
  datasets::Dataset ds = TinyDataset(76);
  ASSERT_GE(ds.documents.size(), 2u);
  core::TenetOptions options;
  options.degrade_to_prior = false;
  baselines::TenetLinker tenet(Substrate(), options);
  FaultInjector faults(32);
  // Fail exactly the first cover solve; all later documents run clean.
  faults.ArmNth("core/cover_solve", 1);
  SystemScores scores = EvaluateEndToEnd(tenet, ds);
  EXPECT_EQ(scores.failed_documents, 1);
  ASSERT_EQ(scores.failures.size(), 1u);
  EXPECT_EQ(scores.failures[0].doc_id, ds.documents[0].id);
  EXPECT_EQ(scores.full_documents,
            static_cast<int>(ds.documents.size()) - 1);
}

TEST(ResilienceTest, EmbeddingFetchFaultsOnlyDegradeQuality) {
  datasets::Dataset ds = TinyDataset(77);
  baselines::TenetLinker tenet(Substrate());
  FaultInjector faults(33);
  faults.Arm("embedding/fetch", 0.5);
  SystemScores scores = EvaluateEndToEnd(tenet, ds);
  // Missing vectors skew coherence weights but never abort a document.
  EXPECT_EQ(scores.failed_documents, 0);
  EXPECT_GT(faults.HitCount("embedding/fetch"), 0);
}

// --- The per-request outcome record ---------------------------------------

// The fault points of the three dependencies, in Dependency order.
constexpr const char* kDependencyPoints[3] = {
    "kb/alias_lookup", "embedding/fetch", "core/cover_solve"};

// Links every document of `ds` through `linker` under `context` (with a
// fresh record set on it) and checks the record against the fault points:
// every hit is one recorded operation and every fire one failed operation.
// With `rate` > 0 all three points are armed at it.  Returns the hit count
// per dependency so callers can check which ones the path touched.
std::vector<int> ExpectRecordMatchesFaultPoints(
    const baselines::Linker& linker, const datasets::Dataset& ds,
    core::LinkContext context, double rate) {
  FaultInjector faults(/*seed=*/57);
  if (rate > 0.0) {
    for (const char* point : kDependencyPoints) faults.Arm(point, rate);
  }
  DependencyOutcomes outcomes;
  context.outcomes = &outcomes;
  for (const datasets::Document& doc : ds.documents) {
    EXPECT_TRUE(linker.LinkDocument(doc.text, context).ok());
  }
  std::vector<int> hits;
  for (int d = 0; d < 3; ++d) {
    SCOPED_TRACE(kDependencyPoints[d]);
    const int hit = faults.HitCount(kDependencyPoints[d]);
    EXPECT_EQ(outcomes.ok[d] + outcomes.failed[d], hit);
    EXPECT_EQ(outcomes.failed[d], faults.FireCount(kDependencyPoints[d]));
    hits.push_back(hit);
  }
  return hits;
}

TEST(ResilienceTest, RecordSeesEveryPipelineDependencyOperation) {
  datasets::Dataset ds = TinyDataset(78, /*num_docs=*/8);
  baselines::TenetLinker tenet(Substrate());
  core::LinkContext pair_link;
  pair_link.cap_to_pair_link = true;
  struct Rung {
    const char* name;
    core::LinkContext context;
    std::vector<bool> touches;  // per dependency, on the unarmed run
  };
  const Rung rungs[] = {
      {"full", {}, {true, true, true}},
      {"pair_link", pair_link, {true, true, false}},
      {"prior_only", core::LinkContext::WithDeadline(Deadline::Expired()),
       {true, false, false}},
  };
  for (const Rung& rung : rungs) {
    SCOPED_TRACE(rung.name);
    std::vector<int> hits =
        ExpectRecordMatchesFaultPoints(tenet, ds, rung.context, 0.0);
    for (int d = 0; d < 3; ++d) {
      EXPECT_EQ(hits[d] > 0, rung.touches[d]) << kDependencyPoints[d];
    }
    ExpectRecordMatchesFaultPoints(tenet, ds, rung.context, 0.3);
  }
}

TEST(ResilienceTest, RecordSeesEveryBaselineDependencyOperation) {
  datasets::Dataset ds = TinyDataset(79, /*num_docs=*/8);
  std::vector<std::unique_ptr<baselines::Linker>> linkers;
  linkers.push_back(std::make_unique<baselines::FalconLike>(Substrate()));
  linkers.push_back(std::make_unique<baselines::EarlLike>(Substrate()));
  linkers.push_back(std::make_unique<baselines::KbPearlLike>(Substrate()));
  linkers.push_back(std::make_unique<baselines::QkbflyLike>(Substrate()));
  linkers.push_back(std::make_unique<baselines::MintreeLike>(Substrate()));
  linkers.push_back(std::make_unique<baselines::PairlinkLike>(Substrate()));
  for (const auto& linker : linkers) {
    SCOPED_TRACE(std::string(linker->name()));
    std::vector<int> hits =
        ExpectRecordMatchesFaultPoints(*linker, ds, {}, 0.0);
    EXPECT_GT(hits[0], 0);  // candidate lookups
    EXPECT_GT(hits[1], 0);  // the graph's gather, plus any Cosine calls
    EXPECT_EQ(hits[2], 0);  // no baseline solves a tree cover
    ExpectRecordMatchesFaultPoints(*linker, ds, {}, 0.3);
  }
}

TEST(ResilienceTest, ServedBatchFeedsEveryOperationToItsBreaker) {
  datasets::Dataset ds = TinyDataset(80, /*num_docs=*/8);
  baselines::TenetLinker tenet(Substrate());
  obs::MetricsRegistry registry;
  serving::ServingOptions options;
  options.metrics = &registry;
  options.num_threads = 2;
  options.overflow = QueueOverflowPolicy::kBlock;
  serving::BatchLinkingService service(&tenet, options);
  std::vector<std::string> texts;
  for (const datasets::Document& doc : ds.documents) texts.push_back(doc.text);

  FaultInjector faults(/*seed=*/58);
  for (const serving::ServedResult& served : service.LinkBatch(texts)) {
    EXPECT_TRUE(served.result.ok());
  }
  for (const char* point : kDependencyPoints) {
    SCOPED_TRACE(point);
    const CircuitBreaker::Stats stats = service.breaker(point)->stats();
    EXPECT_GT(faults.HitCount(point), 0);
    EXPECT_EQ(stats.outcomes, faults.HitCount(point));
    EXPECT_EQ(stats.failures, 0);
    // The breaker publishes the same count to the service's registry.
    const std::string labels = obs::LabelPair("dependency", point) + "," +
                               obs::LabelPair("outcome", "ok");
    EXPECT_EQ(registry
                  .GetCounter("tenet_dependency_operations_total", "",
                              labels)
                  ->Value(),
              faults.HitCount(point));
  }
}

}  // namespace
}  // namespace eval
}  // namespace tenet
