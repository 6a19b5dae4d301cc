// Golden snapshot equivalence: a world saved to disk and reloaded — TENETKB2
// streamed or zero-copy — must drive the full evaluation to scores
// byte-identical to the in-memory original, including the full/degraded
// accounting.  This is the round-trip contract the persistence layer exists
// to keep: a restart may never change what the system links.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/tenet_linker.h"
#include "datasets/corpus_generator.h"
#include "datasets/world.h"
#include "eval/harness.h"
#include "kb/io.h"

namespace tenet {
namespace eval {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void ExpectSamePRF(const PRF& a, const PRF& b, const char* what) {
  EXPECT_EQ(a.tp, b.tp) << what;
  EXPECT_EQ(a.fp, b.fp) << what;
  EXPECT_EQ(a.fn, b.fn) << what;
}

SystemScores ScoreWorld(const kb::KnowledgeBase& kb,
                        const embedding::EmbeddingStore& embeddings,
                        const text::Gazetteer& gazetteer,
                        const datasets::Dataset& dataset) {
  baselines::TenetLinker linker(
      baselines::BaselineSubstrate{&kb, &embeddings, &gazetteer, {}, {}});
  return EvaluateEndToEnd(linker, dataset);
}

TEST(KbSnapshotTest, EveryLoadPathScoresIdenticallyToMemory) {
  datasets::SyntheticWorld world = datasets::BuildWorld();
  datasets::CorpusGenerator gen(&world.kb_world);
  Rng rng(71);
  datasets::DatasetSpec spec = datasets::NewsSpec();
  spec.num_docs = 6;
  datasets::Dataset dataset = gen.Generate(spec, rng);

  SystemScores golden =
      ScoreWorld(world.kb(), world.embeddings, world.gazetteer(), dataset);
  ASSERT_EQ(golden.failed_documents, 0);
  ASSERT_GT(golden.entity_linking.tp, 0);

  std::string kb_path = TempPath("snapshot_world.tenetkb");
  std::string emb_path = TempPath("snapshot_world.tenetemb");
  ASSERT_TRUE(kb::SaveKnowledgeBase(world.kb(), kb_path).ok());
  ASSERT_TRUE(kb::SaveEmbeddings(world.embeddings, emb_path).ok());

  for (bool prefer_mmap : {false, true}) {
    SCOPED_TRACE(prefer_mmap ? "binary_mmap" : "binary_stream");
    kb::KbLoadOptions options;
    options.prefer_mmap = prefer_mmap;
    Result<kb::KnowledgeBase> kb2 = kb::LoadKnowledgeBase(kb_path, options);
    ASSERT_TRUE(kb2.ok()) << kb2.status();
    Result<embedding::EmbeddingStore> emb2 =
        kb::LoadEmbeddings(emb_path, options);
    ASSERT_TRUE(emb2.ok()) << emb2.status();
    text::Gazetteer gazetteer2 = kb::DeriveGazetteer(*kb2);

    SystemScores scores = ScoreWorld(*kb2, *emb2, gazetteer2, dataset);
    ExpectSamePRF(golden.entity_linking, scores.entity_linking,
                  "entity_linking");
    ExpectSamePRF(golden.relation_linking, scores.relation_linking,
                  "relation_linking");
    ExpectSamePRF(golden.mention_detection, scores.mention_detection,
                  "mention_detection");
    ExpectSamePRF(golden.isolated_detection, scores.isolated_detection,
                  "isolated_detection");
    EXPECT_EQ(golden.failed_documents, scores.failed_documents);
    EXPECT_EQ(golden.full_documents, scores.full_documents);
    EXPECT_EQ(golden.degraded_documents, scores.degraded_documents);
  }
}

}  // namespace
}  // namespace eval
}  // namespace tenet
