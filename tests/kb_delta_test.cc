// TENETDELTA1 suite: segment round-trip, the loader's corruption matrix,
// crash-safe (torn-write) behavior, and the ApplyDeltas semantics — dense
// append-only ids, composed alias weights with bit-exact untouched
// surfaces, tombstones, near-tie prior flips and the op order of tied
// priors.  Registered under the `kbupdate` ctest label.
#include "kb/delta.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/fault_injection.h"
#include "embedding/embedding_store.h"
#include "kb/knowledge_base.h"
#include "kb/types.h"

namespace tenet {
namespace kb {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

bool FileExists(const std::string& path) {
  return std::ifstream(path, std::ios::binary).good();
}

// The shared base substrate: two entities in a near-tie on the surface
// "paris" (0.51 / 0.49), one unrelated entity + predicate, one fact.
struct Base {
  KnowledgeBase kb;
  embedding::EmbeddingStore embeddings{/*dimension=*/4, /*num_entities=*/3,
                                       /*num_predicates=*/1};
  EntityId paris_city;
  EntityId paris_person;
  EntityId berlin;
  PredicateId located_in;
};

Base MakeBase() {
  Base base;
  base.paris_city =
      base.kb.AddEntity("Paris", EntityType::kLocation, 0, /*popularity=*/0.51);
  base.paris_person = base.kb.AddEntity("Paris Hilton", EntityType::kPerson, 0,
                                        /*popularity=*/1.0);
  // The person's "paris" weight is 0.49: a near tie the city wins.
  base.kb.AddEntityAlias(base.paris_person, "Paris", 0.49);
  base.berlin =
      base.kb.AddEntity("Berlin", EntityType::kLocation, 0, /*popularity=*/1.0);
  base.located_in = base.kb.AddPredicate("located in");
  EXPECT_TRUE(
      base.kb.AddFact(base.paris_city, base.located_in, base.berlin).ok());
  base.kb.Finalize();
  for (int32_t e = 0; e < 3; ++e) {
    std::span<float> row =
        base.embeddings.MutableVector(ConceptRef::Entity(e));
    for (int d = 0; d < 4; ++d) row[d] = static_cast<float>(e + 1);
  }
  base.embeddings.Finalize();
  return base;
}

DeltaSegment OneOfEveryOp(const Base& base) {
  DeltaBuilder builder(base.kb);
  EntityId nova = builder.AddEntity("Nova", EntityType::kOrganization,
                                    /*domain=*/2, /*popularity=*/0.75);
  PredicateId founded = builder.AddPredicate("founded by", 0, 1.0);
  builder.AddEntityAlias(nova, "the nova org", 0.6);
  builder.AddPredicateAlias(founded, "established by", 0.4);
  builder.AdjustEntityAliasPrior(base.paris_person, "Paris", 0.8);
  builder.AdjustPredicateAliasPrior(base.located_in, "located in", 2.0);
  builder.TombstoneEntity(base.berlin);
  builder.AddFact(nova, founded, base.paris_person);
  builder.AddLiteralFact(nova, founded, "2026");
  builder.SetEmbedding(ConceptRef::Entity(nova),
                       std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f});
  return builder.Build();
}

TEST(DeltaSegmentTest, RoundTripsEveryOpThroughDisk) {
  Base base = MakeBase();
  DeltaSegment segment = OneOfEveryOp(base);
  std::string path = TempPath("delta_roundtrip.tenetdelta");
  ASSERT_TRUE(WriteDeltaSegment(segment, path).ok());

  Result<DeltaSegment> loaded = LoadDeltaSegment(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->records.size(), segment.records.size());
  for (size_t i = 0; i < segment.records.size(); ++i) {
    SCOPED_TRACE(i);
    const DeltaRecord& a = segment.records[i];
    const DeltaRecord& b = loaded->records[i];
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.text, b.text);
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.domain, b.domain);
    EXPECT_EQ(a.weight, b.weight);  // bit-exact: doubles are memcpy'd
    EXPECT_EQ(a.subject, b.subject);
    EXPECT_EQ(a.predicate, b.predicate);
    EXPECT_EQ(a.object, b.object);
    EXPECT_EQ(a.ref_kind, b.ref_kind);
    EXPECT_EQ(a.embedding, b.embedding);
  }
}

TEST(DeltaSegmentTest, LoaderRejectsTheCorruptionMatrix) {
  Base base = MakeBase();
  DeltaSegment segment = OneOfEveryOp(base);
  std::string path = TempPath("delta_corrupt.tenetdelta");
  ASSERT_TRUE(WriteDeltaSegment(segment, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 60u);

  struct Corruption {
    const char* what;
    size_t offset;
  };
  const Corruption kMatrix[] = {
      {"magic", 0},
      {"endian tag", 12},
      {"record count", 16},
      {"header checksum", 32},
      {"first record op", 40},
      {"record payload", bytes.size() - 1},
  };
  for (const Corruption& corruption : kMatrix) {
    SCOPED_TRACE(corruption.what);
    std::string mutated = bytes;
    mutated[corruption.offset] ^= 0x5a;
    std::string bad = TempPath("delta_corrupt_case.tenetdelta");
    { std::ofstream(bad, std::ios::binary) << mutated; }
    Result<DeltaSegment> loaded = LoadDeltaSegment(bad);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
  // A bare 40-byte header claiming 2^60 records over an empty payload,
  // with a recomputed header checksum: the count is refused before it
  // sizes any allocation.
  {
    SCOPED_TRACE("record count beyond the payload");
    std::string header = bytes.substr(0, 40);
    const uint64_t record_count = uint64_t{1} << 60;
    const uint64_t payload_bytes = 0;
    std::memcpy(header.data() + 16, &record_count, sizeof(record_count));
    std::memcpy(header.data() + 24, &payload_bytes, sizeof(payload_bytes));
    const uint64_t checksum = Fnv1a64(header.data(), 32);
    std::memcpy(header.data() + 32, &checksum, sizeof(checksum));
    std::string bad = TempPath("delta_huge_count.tenetdelta");
    { std::ofstream(bad, std::ios::binary) << header; }
    Result<DeltaSegment> loaded = LoadDeltaSegment(bad);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
  // Truncation (a short read, not a flipped byte) is also refused.
  {
    std::string bad = TempPath("delta_truncated.tenetdelta");
    std::ofstream(bad, std::ios::binary)
        << bytes.substr(0, bytes.size() / 2);
    Result<DeltaSegment> loaded = LoadDeltaSegment(bad);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
  // The pristine file still loads: the matrix never mutated it in place.
  EXPECT_TRUE(LoadDeltaSegment(path).ok());
}

TEST(DeltaSegmentTest, InjectedTornWriteNeverPublishesASegment) {
  Base base = MakeBase();
  DeltaSegment segment = OneOfEveryOp(base);
  std::string path = TempPath("delta_torn.tenetdelta");
  std::remove(path.c_str());
  {
    FaultInjector faults(7);
    faults.Arm("kb/io/write_delta", 1.0);
    Status written = WriteDeltaSegment(segment, path);
    ASSERT_FALSE(written.ok());
    EXPECT_EQ(written.code(), StatusCode::kDataLoss);
    EXPECT_EQ(faults.FireCount("kb/io/write_delta"), 1);
  }
  // The crash left temp-file debris, never a readable target.
  EXPECT_FALSE(FileExists(path));
  EXPECT_TRUE(FileExists(path + ".tmp"));
  EXPECT_EQ(LoadDeltaSegment(path).status().code(), StatusCode::kNotFound);
  std::remove((path + ".tmp").c_str());
}

TEST(ApplyDeltasTest, AddedConceptsBecomeCandidatesWithEmbeddings) {
  Base base = MakeBase();
  DeltaBuilder builder(base.kb);
  EntityId nova = builder.AddEntity("Nova", EntityType::kOrganization, 2, 0.75);
  builder.AddEntityAlias(nova, "the nova org", 0.6);
  builder.SetEmbedding(ConceptRef::Entity(nova),
                       std::vector<float>{1.0f, 0.0f, 0.0f, 0.0f});
  std::vector<DeltaSegment> segments{builder.Build()};

  Result<AppliedDelta> applied =
      ApplyDeltas(base.kb, base.embeddings, segments);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(applied->stats.added_entities, 1);
  EXPECT_EQ(applied->stats.added_aliases, 2);  // label alias + explicit one
  ASSERT_EQ(applied->kb.num_entities(), base.kb.num_entities() + 1);
  EXPECT_EQ(applied->kb.entity(nova).label, "Nova");
  EXPECT_EQ(applied->kb.entity(nova).domain, 2);

  std::vector<EntityCandidate> by_label =
      applied->kb.CandidateEntities("Nova", std::nullopt, 4);
  ASSERT_EQ(by_label.size(), 1u);
  EXPECT_EQ(by_label[0].entity, nova);
  std::vector<EntityCandidate> by_alias =
      applied->kb.CandidateEntities("the nova org", std::nullopt, 4);
  ASSERT_EQ(by_alias.size(), 1u);
  EXPECT_EQ(by_alias[0].entity, nova);

  ASSERT_EQ(applied->embeddings.num_entities(), base.kb.num_entities() + 1);
  std::span<const float> row =
      applied->embeddings.Vector(ConceptRef::Entity(nova));
  EXPECT_EQ(row[0], 1.0f);
  EXPECT_EQ(row[1], 0.0f);
  // The base rows rode through bit-exact.
  std::span<const float> berlin_row =
      applied->embeddings.Vector(ConceptRef::Entity(base.berlin));
  EXPECT_EQ(berlin_row[0], 3.0f);
}

TEST(ApplyDeltasTest, UntouchedSurfacesKeepBitExactPriors) {
  Base base = MakeBase();
  DeltaBuilder builder(base.kb);
  builder.AddEntity("Nova", EntityType::kOrganization);
  std::vector<DeltaSegment> segments{builder.Build()};
  Result<AppliedDelta> applied =
      ApplyDeltas(base.kb, base.embeddings, segments);
  ASSERT_TRUE(applied.ok()) << applied.status();

  for (const char* surface : {"Paris", "Paris Hilton", "Berlin"}) {
    SCOPED_TRACE(surface);
    std::vector<EntityCandidate> before =
        base.kb.CandidateEntities(surface, std::nullopt, 4);
    std::vector<EntityCandidate> after =
        applied->kb.CandidateEntities(surface, std::nullopt, 4);
    ASSERT_EQ(before.size(), after.size());
    for (size_t i = 0; i < before.size(); ++i) {
      EXPECT_EQ(before[i].entity, after[i].entity);
      // EQ, not NEAR: untouched priors are restored bit-exactly.
      EXPECT_EQ(before[i].prior, after[i].prior);
    }
  }
}

TEST(ApplyDeltasTest, PriorAdjustmentFlipsANearTie) {
  Base base = MakeBase();
  // Sanity: the city wins "paris" 0.51 to 0.49 in the base.
  std::vector<EntityCandidate> before =
      base.kb.CandidateEntities("Paris", std::nullopt, 4);
  ASSERT_EQ(before.size(), 2u);
  ASSERT_EQ(before[0].entity, base.paris_city);

  DeltaBuilder builder(base.kb);
  builder.AdjustEntityAliasPrior(base.paris_person, "Paris", 0.8);
  std::vector<DeltaSegment> segments{builder.Build()};
  Result<AppliedDelta> applied =
      ApplyDeltas(base.kb, base.embeddings, segments);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(applied->stats.adjusted_priors, 1);
  EXPECT_EQ(applied->stats.touched_surfaces, 1);

  std::vector<EntityCandidate> after =
      applied->kb.CandidateEntities("Paris", std::nullopt, 4);
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[0].entity, base.paris_person) << "the tie did not flip";
  EXPECT_NEAR(after[0].prior, 0.8 / (0.8 + 0.51), 1e-12);
  EXPECT_NEAR(after[1].prior, 0.51 / (0.8 + 0.51), 1e-12);
}

TEST(ApplyDeltasTest, TiedPriorsKeepTheirOpOrder) {
  // More postings than an insertion sort handles alone: an unstable sort
  // of this many equal priors reorders them, a stable one keeps the order
  // the ops added them in.
  Base base = MakeBase();
  DeltaBuilder builder(base.kb);
  std::vector<EntityId> crowd;
  for (int i = 0; i < 24; ++i) {
    crowd.push_back(builder.AddEntity("Member " + std::to_string(i),
                                      EntityType::kPerson));
    builder.AddEntityAlias(crowd.back(), "the crowd", 1.0);
  }
  std::vector<DeltaSegment> segments{builder.Build()};
  Result<AppliedDelta> applied =
      ApplyDeltas(base.kb, base.embeddings, segments);
  ASSERT_TRUE(applied.ok()) << applied.status();

  std::span<const AliasPosting> postings =
      applied->kb.alias_index().LookupEntities("the crowd");
  ASSERT_EQ(postings.size(), crowd.size());
  for (size_t i = 0; i < crowd.size(); ++i) {
    EXPECT_EQ(postings[i].concept_ref, ConceptRef::Entity(crowd[i])) << i;
    EXPECT_EQ(postings[i].prior, postings[0].prior) << i;
  }
}

TEST(ApplyDeltasTest, TombstoneStripsCandidatesAndDropsFacts) {
  Base base = MakeBase();
  DeltaBuilder builder(base.kb);
  builder.TombstoneEntity(base.berlin);
  std::vector<DeltaSegment> segments{builder.Build()};
  Result<AppliedDelta> applied =
      ApplyDeltas(base.kb, base.embeddings, segments);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(applied->stats.tombstones, 1);
  EXPECT_EQ(applied->stats.dropped_facts, 1);  // Paris -located in-> Berlin

  // Ids stay dense — the record survives — but the entity is unreachable.
  ASSERT_EQ(applied->kb.num_entities(), base.kb.num_entities());
  EXPECT_TRUE(
      applied->kb.CandidateEntities("Berlin", std::nullopt, 4).empty());
  EXPECT_EQ(applied->kb.num_facts(), 0);
}

TEST(ApplyDeltasTest, LaterSegmentsSeeEarlierSegmentsIds) {
  Base base = MakeBase();
  DeltaBuilder first(base.kb);
  EntityId nova = first.AddEntity("Nova", EntityType::kOrganization);
  DeltaBuilder second(first.num_entities(), first.num_predicates());
  EntityId halo = second.AddEntity("Halo", EntityType::kOrganization);
  second.AddFact(halo, base.located_in, nova);
  std::vector<DeltaSegment> segments{first.Build(), second.Build()};

  Result<AppliedDelta> applied =
      ApplyDeltas(base.kb, base.embeddings, segments);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(applied->stats.added_entities, 2);
  EXPECT_EQ(applied->stats.added_facts, 1);
  ASSERT_EQ(applied->kb.num_entities(), base.kb.num_entities() + 2);
  const Triple& fact = applied->kb.facts().back();
  EXPECT_EQ(fact.subject, halo);
  EXPECT_EQ(fact.object_entity, nova);
}

TEST(ApplyDeltasTest, RejectsSegmentsBuiltAgainstADifferentBase) {
  Base base = MakeBase();
  // Built as if the base had 10 entities: its first add claims id 10.
  DeltaBuilder builder(/*base_entities=*/10, /*base_predicates=*/1);
  builder.AddEntity("Nova", EntityType::kOrganization);
  std::vector<DeltaSegment> segments{builder.Build()};
  Result<AppliedDelta> applied =
      ApplyDeltas(base.kb, base.embeddings, segments);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kInvalidArgument);
}

TEST(ApplyDeltasTest, RejectsAdjustmentsOfMissingPostings) {
  Base base = MakeBase();
  DeltaBuilder builder(base.kb);
  builder.AdjustEntityAliasPrior(base.berlin, "no such surface", 0.9);
  std::vector<DeltaSegment> segments{builder.Build()};
  Result<AppliedDelta> applied =
      ApplyDeltas(base.kb, base.embeddings, segments);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kInvalidArgument);
}

TEST(ApplyDeltasTest, RejectsEmbeddingDimensionMismatch) {
  Base base = MakeBase();
  DeltaBuilder builder(base.kb);
  builder.SetEmbedding(ConceptRef::Entity(base.berlin),
                       std::vector<float>{1.0f, 2.0f});  // dim 2, store is 4
  std::vector<DeltaSegment> segments{builder.Build()};
  Result<AppliedDelta> applied =
      ApplyDeltas(base.kb, base.embeddings, segments);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace kb
}  // namespace tenet
