#include "kb/io.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/pipeline.h"
#include "datasets/corpus_generator.h"
#include "datasets/world.h"
#include "kb/delta.h"
#include "kb/synthetic_kb.h"
#include "serving/kb_generation.h"

namespace tenet {
namespace kb {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(KbIoTest, KnowledgeBaseRoundTrip) {
  Rng rng(61);
  SyntheticKbOptions options;
  options.num_domains = 4;
  options.entities_per_domain = 20;
  options.num_predicates = 10;
  SyntheticKb world = SyntheticKbGenerator(options).Generate(rng);

  std::string path = TempPath("kb_roundtrip.tenetkb");
  ASSERT_TRUE(SaveKnowledgeBase(world.kb, path).ok());
  Result<KnowledgeBase> loaded = LoadKnowledgeBase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  const KnowledgeBase& a = world.kb;
  const KnowledgeBase& b = loaded.value();
  ASSERT_EQ(a.num_entities(), b.num_entities());
  ASSERT_EQ(a.num_predicates(), b.num_predicates());
  ASSERT_EQ(a.num_facts(), b.num_facts());
  for (EntityId id = 0; id < a.num_entities(); ++id) {
    EXPECT_EQ(a.entity(id).label, b.entity(id).label);
    EXPECT_EQ(a.entity(id).type, b.entity(id).type);
    EXPECT_EQ(a.entity(id).domain, b.entity(id).domain);
    EXPECT_DOUBLE_EQ(a.entity(id).popularity, b.entity(id).popularity);
  }
  for (int32_t i = 0; i < a.num_facts(); ++i) {
    EXPECT_EQ(a.facts()[i].subject, b.facts()[i].subject);
    EXPECT_EQ(a.facts()[i].predicate, b.facts()[i].predicate);
    EXPECT_EQ(a.facts()[i].object_is_entity, b.facts()[i].object_is_entity);
  }

  // Candidate distributions round-trip exactly (priors are re-normalized
  // idempotently).
  for (EntityId id = 0; id < a.num_entities(); ++id) {
    const std::string& label = a.entity(id).label;
    std::vector<EntityCandidate> ca =
        a.CandidateEntities(label, std::nullopt, 10);
    std::vector<EntityCandidate> cb =
        b.CandidateEntities(label, std::nullopt, 10);
    ASSERT_EQ(ca.size(), cb.size()) << label;
    for (size_t i = 0; i < ca.size(); ++i) {
      EXPECT_EQ(ca[i].entity, cb[i].entity) << label;
      EXPECT_NEAR(ca[i].prior, cb[i].prior, 1e-9) << label;
    }
  }
}

TEST(KbIoTest, LiteralFactsRoundTrip) {
  KnowledgeBase kb;
  EntityId e = kb.AddEntity("Brooklyn", EntityType::kLocation);
  PredicateId p = kb.AddPredicate("founded in");
  ASSERT_TRUE(kb.AddLiteralFact(e, p, "1898").ok());
  kb.Finalize();

  std::string path = TempPath("kb_literal.tenetkb");
  ASSERT_TRUE(SaveKnowledgeBase(kb, path).ok());
  Result<KnowledgeBase> loaded = LoadKnowledgeBase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->num_facts(), 1);
  EXPECT_FALSE(loaded->facts()[0].object_is_entity);
  EXPECT_EQ(loaded->facts()[0].object_literal, "1898");
}

TEST(KbIoTest, LoadRejectsGarbage) {
  std::string path = TempPath("kb_garbage.tenetkb");
  {
    std::ofstream out(path);
    out << "definitely not a kb\n";
  }
  Result<KnowledgeBase> loaded = LoadKnowledgeBase(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
}

TEST(KbIoTest, LoadRejectsTruncatedFile) {
  // Save a valid KB, then truncate it mid-section.
  KnowledgeBase kb;
  kb.AddEntity("A", EntityType::kOther);
  kb.AddEntity("B", EntityType::kOther);
  kb.Finalize();
  std::string path = TempPath("kb_truncated.tenetkb");
  ASSERT_TRUE(SaveKnowledgeBase(kb, path).ok());
  std::ifstream in(path);
  std::string head;
  std::string line;
  for (int i = 0; i < 3 && std::getline(in, line); ++i) head += line + "\n";
  in.close();
  {
    std::ofstream out(path, std::ios::trunc);
    out << head;
  }
  EXPECT_FALSE(LoadKnowledgeBase(path).ok());
}

TEST(KbIoTest, LoadRejectsMissingFile) {
  Result<KnowledgeBase> loaded =
      LoadKnowledgeBase(TempPath("does_not_exist.tenetkb"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsNotFound());
}

TEST(KbIoTest, SaveRejectsUnfinalizedKb) {
  KnowledgeBase kb;
  kb.AddEntity("A", EntityType::kOther);
  EXPECT_EQ(SaveKnowledgeBase(kb, TempPath("nope.tenetkb")).code(),
            StatusCode::kFailedPrecondition);
}

TEST(KbIoTest, EmbeddingsRoundTripBitExact) {
  datasets::SyntheticWorld world = datasets::BuildWorld({
      .kb = {.num_domains = 3, .entities_per_domain = 15,
             .num_predicates = 8},
      .embeddings = {},
      .seed = 99,
  });
  std::string path = TempPath("embeddings.tenetemb");
  ASSERT_TRUE(SaveEmbeddings(world.embeddings, path).ok());
  Result<embedding::EmbeddingStore> loaded = LoadEmbeddings(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->dimension(), world.embeddings.dimension());
  ASSERT_EQ(loaded->num_entities(), world.embeddings.num_entities());
  ASSERT_EQ(loaded->num_predicates(), world.embeddings.num_predicates());
  std::vector<ConceptRef> refs;
  for (EntityId e = 0; e < loaded->num_entities(); ++e) {
    refs.push_back(ConceptRef::Entity(e));
  }
  for (PredicateId p = 0; p < loaded->num_predicates(); ++p) {
    refs.push_back(ConceptRef::Predicate(p));
  }
  for (ConceptRef ref : refs) {
    std::span<const float> va = world.embeddings.Vector(ref);
    std::span<const float> vb = loaded->Vector(ref);
    for (int d = 0; d < loaded->dimension(); ++d) {
      EXPECT_EQ(va[d], vb[d]);  // bit-exact
    }
  }
  // Finalize (the in-memory store) and LoadMatrix (the loaded one) share
  // one norm pass, so every unit row agrees to the last bit.
  const size_t row_doubles = refs.size() * loaded->dimension();
  std::vector<double> rows_in_memory(row_doubles);
  std::vector<double> rows_loaded(row_doubles);
  world.embeddings.GatherUnit(refs, rows_in_memory.data());
  loaded->GatherUnit(refs, rows_loaded.data());
  EXPECT_EQ(std::memcmp(rows_in_memory.data(), rows_loaded.data(),
                        row_doubles * sizeof(double)),
            0);
  // Cosines agree exactly as well.
  EXPECT_DOUBLE_EQ(
      world.embeddings.Cosine(ConceptRef::Entity(0), ConceptRef::Entity(1)),
      loaded->Cosine(ConceptRef::Entity(0), ConceptRef::Entity(1)));
}

TEST(KbIoTest, EmbeddingsLoadRejectsTruncation) {
  datasets::SyntheticWorld world = datasets::BuildWorld({
      .kb = {.num_domains = 2, .entities_per_domain = 5,
             .num_predicates = 3},
      .embeddings = {},
      .seed = 100,
  });
  std::string path = TempPath("embeddings_trunc.tenetemb");
  ASSERT_TRUE(SaveEmbeddings(world.embeddings, path).ok());
  // Truncate the file to half.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size() / 2));
  }
  EXPECT_FALSE(LoadEmbeddings(path).ok());
}

TEST(KbIoTest, DeriveGazetteerCoversAliasSurfaces) {
  Rng rng(62);
  SyntheticKbOptions options;
  options.num_domains = 3;
  options.entities_per_domain = 15;
  options.num_predicates = 8;
  SyntheticKb world = SyntheticKbGenerator(options).Generate(rng);

  text::Gazetteer derived = DeriveGazetteer(world.kb);
  for (EntityId id = 0; id < world.kb.num_entities(); ++id) {
    for (const std::string& surface : world.entity_surfaces[id]) {
      EXPECT_TRUE(derived.Contains(surface)) << surface;
    }
    // Topic labels (lowercase) stay spottable in lowercase text.
    if (world.kb.entity(id).type == EntityType::kTopic) {
      EXPECT_TRUE(derived.IsLowercaseMention(world.kb.entity(id).label));
    }
  }

  // Two entities of different types share "jordan" with equal weight: the
  // tie goes to the lower id.  "works at" has only a predicate sense.
  KnowledgeBase kb;
  const EntityId person = kb.AddEntity("Jordan", EntityType::kPerson, 0, 1.0);
  const EntityId river =
      kb.AddEntity("Jordan River", EntityType::kLocation, 0, 1.0);
  kb.AddEntityAlias(river, "Jordan", 1.0);
  const EntityId topic =
      kb.AddEntity("machine learning", EntityType::kTopic, 0, 1.0);
  const PredicateId works_at = kb.AddPredicate("works at");
  kb.Finalize();
  const text::Gazetteer hand = DeriveGazetteer(kb);
  ASSERT_LT(person, river);
  EXPECT_EQ(hand.LookupType("jordan"), EntityType::kPerson);
  EXPECT_EQ(hand.LookupType("Jordan River"), EntityType::kLocation);
  EXPECT_TRUE(hand.IsLowercaseMention("machine learning"));
  EXPECT_FALSE(hand.Contains("works at"));
  EXPECT_EQ(hand.size(), 3u);
  // The alias keys are case-folded, so every surface is lowercase-spottable.
  EXPECT_EQ(hand.max_lowercase_tokens(), 2);

  // After a delta the gazetteer reads the dictionary the apply compiled.
  embedding::EmbeddingStore embeddings(/*dimension=*/4, kb.num_entities(),
                                       kb.num_predicates());
  embeddings.Finalize();
  DeltaBuilder builder(kb);
  const EntityId nova =
      builder.AddEntity("Nova", EntityType::kOrganization, 0, 0.75);
  builder.AddEntityAlias(nova, "jordan", 0.5);
  builder.AdjustEntityAliasPrior(river, "Jordan", 3.0);
  builder.TombstoneEntity(topic);
  builder.AddPredicateAlias(works_at, "employed at", 0.4);
  builder.SetEmbedding(ConceptRef::Entity(nova),
                       std::vector<float>{1.0f, 0.0f, 0.0f, 0.0f});
  std::vector<DeltaSegment> segments{builder.Build()};
  Result<AppliedDelta> applied = ApplyDeltas(kb, embeddings, segments);
  ASSERT_TRUE(applied.ok()) << applied.status();
  ASSERT_GT(applied->stats.touched_surfaces, 0);
  const text::Gazetteer after = DeriveGazetteer(applied->kb);
  EXPECT_EQ(after.LookupType("jordan"), EntityType::kLocation);
  EXPECT_TRUE(after.Contains("nova"));
  EXPECT_FALSE(after.Contains("machine learning"));
}

// DeriveGazetteer as it stood before the one-pass derivation: the
// highest-prior entity posting of each surface (ties to the lower id)
// collected in a per-surface map, then one AddSurface per surface.
text::Gazetteer ReferenceDeriveGazetteer(const KnowledgeBase& kb) {
  text::Gazetteer gazetteer;
  std::unordered_map<std::string, std::pair<double, EntityId>> best;
  kb.alias_index().VisitPostings(
      [&best](std::string_view surface, const AliasPosting& posting) {
        if (!posting.concept_ref.is_entity()) return;
        auto [it, inserted] = best.emplace(
            std::string(surface),
            std::make_pair(posting.prior, posting.concept_ref.id));
        if (!inserted && (posting.prior > it->second.first ||
                          (posting.prior == it->second.first &&
                           posting.concept_ref.id < it->second.second))) {
          it->second = {posting.prior, posting.concept_ref.id};
        }
      });
  for (const auto& [surface, sense] : best) {
    const bool lowercase = !surface.empty() && IsAsciiLowerChar(surface[0]);
    gazetteer.AddSurface(surface, kb.entity(sense.second).type, lowercase);
  }
  return gazetteer;
}

// Every dictionary key gets the same entry from both derivations, and
// every key's first word (a single-word key is its own) the same answer
// from StartsLowercaseMention.
void ExpectDerivationMatchesReference(const KnowledgeBase& kb) {
  const text::Gazetteer derived = DeriveGazetteer(kb);
  const text::Gazetteer reference = ReferenceDeriveGazetteer(kb);
  EXPECT_EQ(derived.size(), reference.size());
  EXPECT_EQ(derived.max_lowercase_tokens(), reference.max_lowercase_tokens());
  size_t keys = 0;
  kb.alias_index().frozen_dict()->VisitSurfaces(
      [&](std::string_view key, std::span<const AliasPosting>) {
        ++keys;
        const text::Gazetteer::Entry* a = derived.FindFolded(key);
        const text::Gazetteer::Entry* b = reference.FindFolded(key);
        ASSERT_EQ(a == nullptr, b == nullptr) << key;
        if (a != nullptr) {
          EXPECT_EQ(a->type, b->type) << key;
          EXPECT_EQ(a->lowercase_mention, b->lowercase_mention) << key;
        }
        const std::string_view first_word = key.substr(0, key.find(' '));
        EXPECT_EQ(derived.StartsLowercaseMention(first_word),
                  reference.StartsLowercaseMention(first_word))
            << first_word;
      });
  EXPECT_EQ(keys, kb.alias_index().num_surfaces());
}

TEST(KbIoTest, DeriveGazetteerMatchesPerSurfaceMapReference) {
  datasets::SyntheticWorld world = datasets::BuildWorld();
  ExpectDerivationMatchesReference(world.kb());

  // A delta-touched list is only stably sorted by prior.  "jordan" starts
  // as river 0.75, person 0.25; adjusting the person's weight to 0.75
  // renormalizes both to 0.5 and keeps the river first, so the tie must
  // go to the lower id, the person, and not to the first posting.
  KnowledgeBase kb;
  const EntityId person = kb.AddEntity("Jordan", EntityType::kPerson, 0, 1.0);
  const EntityId river =
      kb.AddEntity("Jordan River", EntityType::kLocation, 0, 3.0);
  kb.AddEntityAlias(river, "Jordan", 3.0);
  const EntityId topic =
      kb.AddEntity("machine learning", EntityType::kTopic, 0, 1.0);
  kb.AddEntity("deep machine learning", EntityType::kTopic, 0, 1.0);
  const PredicateId works_at = kb.AddPredicate("works at");
  kb.Finalize();
  ExpectDerivationMatchesReference(kb);

  embedding::EmbeddingStore embeddings(/*dimension=*/4, kb.num_entities(),
                                       kb.num_predicates());
  embeddings.Finalize();
  DeltaBuilder builder(kb);
  builder.AdjustEntityAliasPrior(person, "Jordan", 0.75);
  const EntityId nova =
      builder.AddEntity("Nova", EntityType::kOrganization, 0, 0.75);
  builder.AddEntityAlias(nova, "jordan river", 0.5);
  builder.TombstoneEntity(topic);
  builder.AddPredicateAlias(works_at, "employed at", 0.4);
  std::vector<DeltaSegment> segments{builder.Build()};
  Result<AppliedDelta> applied = ApplyDeltas(kb, embeddings, segments);
  ASSERT_TRUE(applied.ok()) << applied.status();
  const std::span<const AliasPosting> jordan =
      applied->kb.alias_index().LookupEntities("jordan");
  ASSERT_EQ(jordan.size(), 2u);
  ASSERT_EQ(jordan[0].concept_ref.id, river);
  ASSERT_EQ(jordan[0].prior, jordan[1].prior);
  EXPECT_EQ(DeriveGazetteer(applied->kb).LookupType("jordan"),
            EntityType::kPerson);
  ExpectDerivationMatchesReference(applied->kb);
}

// Compact writes the KB, then the embeddings; a crash between the two
// leaves a delta generation's KB beside the base's embeddings.  Such a
// pair must not load: the first request reaching the missing row would
// abort the process.
TEST(KbIoTest, GenerationLoadRejectsMismatchedConceptCounts) {
  datasets::SyntheticWorld world = datasets::BuildWorld();
  DeltaBuilder builder(world.kb());
  const EntityId added =
      builder.AddEntity("Zorblax Quintessa", EntityType::kPerson, 0, 1.0);
  builder.SetEmbedding(
      ConceptRef::Entity(added),
      std::vector<float>(static_cast<size_t>(world.embeddings.dimension()),
                         0.5f));
  std::vector<DeltaSegment> segments{builder.Build()};
  Result<AppliedDelta> applied =
      ApplyDeltas(world.kb(), world.embeddings, segments);
  ASSERT_TRUE(applied.ok()) << applied.status();

  const std::string kb_path = TempPath("mismatched.tenetkb");
  const std::string emb_path = TempPath("mismatched.tenetemb");
  ASSERT_TRUE(SaveKnowledgeBase(applied->kb, kb_path).ok());
  ASSERT_TRUE(SaveEmbeddings(world.embeddings, emb_path).ok());
  Result<std::shared_ptr<const serving::KbGeneration>> generation =
      serving::KbGeneration::Load(kb_path, emb_path, {}, /*id=*/1);
  ASSERT_FALSE(generation.ok());
  EXPECT_EQ(generation.status().code(), StatusCode::kInvalidArgument);
  const std::string message = generation.status().ToString();
  EXPECT_NE(message.find(std::to_string(applied->kb.num_entities())),
            std::string::npos)
      << message;
  EXPECT_NE(message.find(std::to_string(world.embeddings.num_entities())),
            std::string::npos)
      << message;

  // The matched pair loads.
  ASSERT_TRUE(SaveEmbeddings(applied->embeddings, emb_path).ok());
  EXPECT_TRUE(serving::KbGeneration::Load(kb_path, emb_path, {}, 2).ok());
}

TEST(KbIoTest, ReloadedWorldLinksIdentically) {
  // Full persistence round trip through the pipeline: save + load the KB
  // and embeddings, derive the gazetteer, and verify identical linking.
  datasets::SyntheticWorld world = datasets::BuildWorld();
  std::string kb_path = TempPath("roundtrip_world.tenetkb");
  std::string emb_path = TempPath("roundtrip_world.tenetemb");
  ASSERT_TRUE(SaveKnowledgeBase(world.kb(), kb_path).ok());
  ASSERT_TRUE(SaveEmbeddings(world.embeddings, emb_path).ok());
  Result<KnowledgeBase> kb2 = LoadKnowledgeBase(kb_path);
  Result<embedding::EmbeddingStore> emb2 = LoadEmbeddings(emb_path);
  ASSERT_TRUE(kb2.ok());
  ASSERT_TRUE(emb2.ok());
  text::Gazetteer gazetteer2 = DeriveGazetteer(*kb2);

  core::TenetPipeline original(&world.kb(), &world.embeddings,
                               &world.gazetteer());
  core::TenetPipeline reloaded(&kb2.value(), &emb2.value(), &gazetteer2);

  datasets::CorpusGenerator gen(&world.kb_world);
  Rng rng(63);
  datasets::DatasetSpec spec = datasets::NewsSpec();
  spec.num_docs = 4;
  datasets::Dataset ds = gen.Generate(spec, rng);
  for (const datasets::Document& doc : ds.documents) {
    Result<core::LinkingResult> a = original.LinkDocument(doc.text);
    Result<core::LinkingResult> b = reloaded.LinkDocument(doc.text);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->links.size(), b->links.size());
    for (size_t i = 0; i < a->links.size(); ++i) {
      EXPECT_EQ(a->links[i].surface, b->links[i].surface);
      EXPECT_EQ(a->links[i].concept_ref, b->links[i].concept_ref);
    }
  }
}

// --- Corruption robustness -------------------------------------------------
// Every malformed input below must come back as a clean InvalidArgument or
// DataLoss — never a crash, never a partially-finalized substrate.

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  ASSERT_TRUE(out.is_open());
  out << content;
}

KnowledgeBase TinyKb() {
  KnowledgeBase kb;
  kb.AddEntity("Brooklyn", EntityType::kLocation, /*domain=*/0,
               /*popularity=*/1.0);
  kb.AddPredicate("visited", /*domain=*/0, /*popularity=*/1.0);
  kb.Finalize();
  return kb;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// One (surface, kind, concept, prior) row per posting, in visit order.
using PostingRows =
    std::vector<std::tuple<std::string, ConceptRef::Kind, int32_t, double>>;

PostingRows AllPostings(const KnowledgeBase& kb) {
  PostingRows rows;
  kb.alias_index().VisitPostings(
      [&rows](std::string_view surface, const AliasPosting& posting) {
        rows.emplace_back(std::string(surface), posting.concept_ref.kind,
                          posting.concept_ref.id, posting.prior);
      });
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(KbIoTest, PriorsRoundTripBitExact) {
  // Alias priors are probabilities computed once at build time; each load
  // must restore them bit-exactly (raw doubles in the alias dictionary).
  // Renormalizing on load would drift near-tie disambiguations by an ulp
  // per save/load generation.
  Rng rng(64);
  SyntheticKbOptions options;
  options.num_domains = 5;
  options.entities_per_domain = 30;
  SyntheticKb world = SyntheticKbGenerator(options).Generate(rng);
  PostingRows original = AllPostings(world.kb);
  ASSERT_FALSE(original.empty());

  std::string path = TempPath("prior_exact.tenetkb");
  ASSERT_TRUE(SaveKnowledgeBase(world.kb, path).ok());
  Result<KnowledgeBase> gen1 = LoadKnowledgeBase(path);
  ASSERT_TRUE(gen1.ok()) << gen1.status();
  EXPECT_EQ(AllPostings(*gen1), original);

  // Second generation: save the loaded KB and load again — still exact.
  ASSERT_TRUE(SaveKnowledgeBase(*gen1, path).ok());
  Result<KnowledgeBase> gen2 = LoadKnowledgeBase(path);
  ASSERT_TRUE(gen2.ok()) << gen2.status();
  EXPECT_EQ(AllPostings(*gen2), original);
}

// --- TENETKB2 corruption matrix --------------------------------------------
// Layout recap (mirrors io.cc): 32-byte header, then five 32-byte table
// entries {u32 id, u32 pad, u64 offset, u64 size, u64 count}, then the
// section payloads: string table (id 1), entities (2), predicates (3),
// facts (5), alias_dict (7).  The header checksum covers only the table,
// so a byte patched inside a record section must be caught by the
// loader's own record validation.

struct BinarySection {
  uint32_t id;
  uint64_t offset;
  uint64_t size;
  uint64_t count;
};

std::vector<BinarySection> ReadSectionTable(const std::string& bytes) {
  uint32_t section_count = 0;
  std::memcpy(&section_count, bytes.data() + 12, sizeof(section_count));
  std::vector<BinarySection> sections;
  for (uint32_t i = 0; i < section_count; ++i) {
    const char* entry = bytes.data() + 32 + i * 32;
    BinarySection s;
    std::memcpy(&s.id, entry, sizeof(s.id));
    std::memcpy(&s.offset, entry + 8, sizeof(s.offset));
    std::memcpy(&s.size, entry + 16, sizeof(s.size));
    std::memcpy(&s.count, entry + 24, sizeof(s.count));
    sections.push_back(s);
  }
  return sections;
}

std::string SavedBinaryKb(const std::string& name) {
  Rng rng(65);
  SyntheticKbOptions options;
  options.num_domains = 2;
  options.entities_per_domain = 8;
  SyntheticKb world = SyntheticKbGenerator(options).Generate(rng);
  std::string path = TempPath(name);
  EXPECT_TRUE(SaveKnowledgeBase(world.kb, path).ok());
  return path;
}

BinarySection SectionWithId(const std::string& bytes, uint32_t id) {
  for (const BinarySection& s : ReadSectionTable(bytes)) {
    if (s.id == id) return s;
  }
  ADD_FAILURE() << "no section with id " << id;
  return {};
}

// Writes `bytes` and expects the load to fail with kInvalidArgument whose
// message names `reason`.
void ExpectLoadRejected(const std::string& bytes, const std::string& reason) {
  std::string path = TempPath("matrix_patched.tenetkb");
  WriteFile(path, bytes);
  Result<KnowledgeBase> loaded = LoadKnowledgeBase(path);
  ASSERT_FALSE(loaded.ok()) << reason;
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << reason;
  EXPECT_NE(loaded.status().message().find(reason), std::string::npos)
      << loaded.status().message();
}

template <typename T>
void Poke(std::string* bytes, uint64_t offset, T value) {
  std::memcpy(bytes->data() + offset, &value, sizeof(value));
}

TEST(KbIoCorruptionTest, BinaryTruncationAtEverySectionBoundaryIsRejected) {
  std::string path = SavedBinaryKb("matrix_boundary.tenetkb");
  std::string content = ReadFileBytes(path);
  std::vector<BinarySection> sections = ReadSectionTable(content);
  ASSERT_EQ(sections.size(), 5u);
  // Cut exactly at each section's start, one byte into it, and one byte
  // before its end — plus the header/table edges.
  std::vector<size_t> cuts = {0, 1, 31, 32, 33, 32 + 5 * 32 - 1, 32 + 5 * 32};
  for (const BinarySection& s : sections) {
    cuts.push_back(s.offset);
    cuts.push_back(s.offset + 1);
    if (s.size > 0) cuts.push_back(s.offset + s.size - 1);
  }
  for (size_t cut : cuts) {
    ASSERT_LT(cut, content.size());
    std::string truncated_path = TempPath("matrix_truncated.tenetkb");
    WriteFile(truncated_path, content.substr(0, cut));
    Result<KnowledgeBase> loaded = LoadKnowledgeBase(truncated_path);
    ASSERT_FALSE(loaded.ok()) << "prefix of " << cut << " bytes";
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << "prefix of " << cut << " bytes";
  }
}

TEST(KbIoCorruptionTest, BinaryChecksumMismatchIsRejected) {
  std::string path = SavedBinaryKb("matrix_checksum.tenetkb");
  std::string content = ReadFileBytes(path);
  // Flip one byte inside the section table; the header checksum covers
  // exactly these bytes, so the load must fail before touching payloads.
  content[40] = static_cast<char>(content[40] ^ 0x01);
  WriteFile(path, content);
  Result<KnowledgeBase> loaded = LoadKnowledgeBase(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos);
}

TEST(KbIoCorruptionTest, BinaryNonMonotonicStringTableIsRejected) {
  std::string path = SavedBinaryKb("matrix_strings.tenetkb");
  std::string content = ReadFileBytes(path);
  std::vector<BinarySection> sections = ReadSectionTable(content);
  ASSERT_GE(sections[0].count, 2u);  // string table is section id 1, first
  ASSERT_EQ(sections[0].id, 1u);
  // The section begins with count uint64 end-offsets; make them decrease.
  uint64_t huge = ~uint64_t{0};
  std::memcpy(content.data() + sections[0].offset, &huge, sizeof(huge));
  WriteFile(path, content);
  Result<KnowledgeBase> loaded = LoadKnowledgeBase(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(KbIoCorruptionTest, BinaryAliasWithOutOfRangeEntityIdIsRejected) {
  std::string path = SavedBinaryKb("matrix_alias.tenetkb");
  std::string content = ReadFileBytes(path);
  std::vector<BinarySection> sections = ReadSectionTable(content);
  // Postings now live in the frozen alias dictionary (section id 7, last).
  ASSERT_EQ(sections.back().id, 7u);
  const BinarySection& dict = sections.back();
  ASSERT_GE(dict.count, 1u);
  // Posting records {i32 concept_id, i32 pad, f64 prior} are the tail of
  // the dictionary payload; point the first concept id far out of range,
  // then re-seal the dictionary's own payload checksum so the id check —
  // not the checksum — must catch it.
  int32_t bogus = INT32_MAX;
  std::memcpy(content.data() + dict.offset + dict.size - dict.count * 16,
              &bogus, sizeof(bogus));
  uint64_t reseal =
      Fnv1a64(content.data() + dict.offset + 8, dict.size - 8);
  std::memcpy(content.data() + dict.offset, &reseal, sizeof(reseal));
  WriteFile(path, content);
  Result<KnowledgeBase> loaded = LoadKnowledgeBase(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(KbIoCorruptionTest, WrongMagicIsRejected) {
  std::string path = TempPath("wrong_magic.tenetkb");
  WriteFile(path, "NOTAKB v1\nE\t0\nP\t0\nA\t0\nF\t0\n");
  Result<KnowledgeBase> loaded = LoadKnowledgeBase(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(KbIoCorruptionTest, WrongVersionLineIsRejected) {
  // A text file that merely resembles a KB container is not a snapshot.
  std::string path = TempPath("wrong_version.tenetkb");
  WriteFile(path, "TENETKB v9\nE\t0\nP\t0\nA\t0\nF\t0\n");
  Result<KnowledgeBase> loaded = LoadKnowledgeBase(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(KbIoCorruptionTest, TruncatedKbFileIsRejected) {
  std::string full_path = TempPath("truncate_source.tenetkb");
  ASSERT_TRUE(SaveKnowledgeBase(TinyKb(), full_path).ok());
  std::ifstream in(full_path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  // Chop at every prefix length: none of them may crash, and any prefix
  // short of the full file must be rejected.
  for (size_t cut = 0; cut + 1 < content.size(); cut += 7) {
    std::string path = TempPath("truncated.tenetkb");
    WriteFile(path, content.substr(0, cut));
    Result<KnowledgeBase> loaded = LoadKnowledgeBase(path);
    ASSERT_FALSE(loaded.ok()) << "prefix of " << cut << " bytes";
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(KbIoCorruptionTest, AliasWithOutOfRangeEntityIdIsRejected) {
  // The first concept id past the end: the boundary, where
  // BinaryAliasWithOutOfRangeEntityIdIsRejected tries INT32_MAX.  The
  // dictionary's own payload checksum is re-sealed, so the id check must
  // catch it.
  std::string content =
      ReadFileBytes(SavedBinaryKb("matrix_alias_edge.tenetkb"));
  const BinarySection dict = SectionWithId(content, 7);
  const int32_t past_end = static_cast<int32_t>(
      std::max(SectionWithId(content, 2).count,
               SectionWithId(content, 3).count));
  Poke(&content, dict.offset + dict.size - dict.count * 16, past_end);
  Poke(&content, dict.offset,
       Fnv1a64(content.data() + dict.offset + 8, dict.size - 8));
  ExpectLoadRejected(content, "out of range");
}

TEST(KbIoCorruptionTest, FactWithOutOfRangeConceptIdsIsRejected) {
  // Fact records: {i32 subject, i32 predicate, i32 object kind (0 entity,
  // 1 literal), i32 object entity, u32 literal ref, u32 pad}.
  const std::string content =
      ReadFileBytes(SavedBinaryKb("matrix_fact_ids.tenetkb"));
  const BinarySection facts = SectionWithId(content, 5);
  ASSERT_GE(facts.count, 1u);
  const int32_t entities =
      static_cast<int32_t>(SectionWithId(content, 2).count);
  const int32_t predicates =
      static_cast<int32_t>(SectionWithId(content, 3).count);
  struct Patch {
    uint64_t field;
    int32_t value;
    const char* reason;
  };
  const Patch patches[] = {
      {0, entities, "bad subject entity id"},
      {0, -1, "bad subject entity id"},
      {4, predicates, "bad predicate id"},
      {12, entities, "bad object entity id"},
  };
  for (const Patch& patch : patches) {
    SCOPED_TRACE(patch.reason);
    std::string bytes = content;
    Poke(&bytes, facts.offset + 8, int32_t{0});  // entity object
    Poke(&bytes, facts.offset + patch.field, patch.value);
    ExpectLoadRejected(bytes, patch.reason);
  }
}

TEST(KbIoCorruptionTest, BadFactObjectKindIsRejected) {
  std::string content =
      ReadFileBytes(SavedBinaryKb("matrix_fact_kind.tenetkb"));
  const BinarySection facts = SectionWithId(content, 5);
  ASSERT_GE(facts.count, 1u);
  Poke(&content, facts.offset + 8, int32_t{2});
  ExpectLoadRejected(content, "bad fact object kind");
}

TEST(KbIoCorruptionTest, LiteralStringReferenceOutOfRangeIsRejected) {
  std::string content =
      ReadFileBytes(SavedBinaryKb("matrix_fact_literal.tenetkb"));
  const BinarySection facts = SectionWithId(content, 5);
  ASSERT_GE(facts.count, 1u);
  const uint32_t strings =
      static_cast<uint32_t>(SectionWithId(content, 1).count);
  Poke(&content, facts.offset + 8, int32_t{1});  // literal object
  Poke(&content, facts.offset + 16, strings);    // one past the last string
  ExpectLoadRejected(content, "string reference out of range in facts");
}

TEST(KbIoCorruptionTest, BadEntityRecordsAreRejected) {
  // Entity records: {u32 label ref, i32 type, i32 domain, i32 pad,
  // f64 popularity}.
  const std::string content =
      ReadFileBytes(SavedBinaryKb("matrix_entities.tenetkb"));
  const BinarySection entities = SectionWithId(content, 2);
  ASSERT_GE(entities.count, 1u);
  {
    std::string bytes = content;
    Poke(&bytes, entities.offset + 4, int32_t{kNumEntityTypes});
    ExpectLoadRejected(bytes, "bad entity type");
  }
  {
    std::string bytes = content;
    Poke(&bytes, entities.offset + 4, int32_t{-1});
    ExpectLoadRejected(bytes, "bad entity type");
  }
  for (double popularity :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(popularity);
    std::string bytes = content;
    Poke(&bytes, entities.offset + 16, popularity);
    ExpectLoadRejected(bytes, "non-positive entity popularity");
  }
}

TEST(KbIoCorruptionTest, BadPredicateRecordIsRejected) {
  // Predicate records: {u32 label ref, i32 domain, i32 pad, i32 pad,
  // f64 popularity}.
  const std::string content =
      ReadFileBytes(SavedBinaryKb("matrix_predicates.tenetkb"));
  const BinarySection predicates = SectionWithId(content, 3);
  ASSERT_GE(predicates.count, 1u);
  {
    std::string bytes = content;
    Poke(&bytes, predicates.offset + 16, 0.0);
    ExpectLoadRejected(bytes, "non-positive predicate popularity");
  }
  {
    std::string bytes = content;
    Poke(&bytes, predicates.offset, uint32_t{0xffffffff});
    ExpectLoadRejected(bytes, "string reference out of range in predicates");
  }
}

TEST(KbIoCorruptionTest, SectionTableTamperingIsRejected) {
  const std::string content =
      ReadFileBytes(SavedBinaryKb("matrix_section_ids.tenetkb"));
  // The section count sits outside the checksummed table: any count but
  // five is refused.
  for (uint32_t count : {4u, 6u, 0u}) {
    SCOPED_TRACE(count);
    std::string bytes = content;
    Poke(&bytes, 12, count);
    ExpectLoadRejected(bytes, "section count");
  }
  // Rewrite one table entry's id and re-seal the header checksum, so the
  // table parser — not the checksum — must reject the layout.
  struct Case {
    uint32_t entry;
    uint32_t id;
    const char* reason;
  };
  const Case cases[] = {
      {3, 4, "unknown TENETKB2 section id 4"},
      {3, 6, "unknown TENETKB2 section id 6"},
      {3, 2, "duplicate TENETKB2 section: entities"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.reason);
    std::string bytes = content;
    Poke(&bytes, 32 + c.entry * 32, c.id);
    Poke(&bytes, 24, Fnv1a64(bytes.data() + 32, 5 * 32));
    ExpectLoadRejected(bytes, c.reason);
  }
}

TEST(KbIoCorruptionTest, NaNEmbeddingPayloadIsDataLoss) {
  // Header says 1 entity, dim 2 — payload carries a NaN, which would
  // silently poison every cosine if it reached Finalize.
  std::string path = TempPath("nan_payload.tenetemb");
  std::string content = "TENETEMB1";
  int32_t header[3] = {2, 1, 0};
  content.append(reinterpret_cast<const char*>(header), sizeof(header));
  float payload[2] = {1.0f, std::numeric_limits<float>::quiet_NaN()};
  content.append(reinterpret_cast<const char*>(payload), sizeof(payload));
  WriteFile(path, content);
  Result<embedding::EmbeddingStore> loaded = LoadEmbeddings(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsDataLoss());
}

TEST(KbIoCorruptionTest, TruncatedEmbeddingPayloadIsRejected) {
  std::string path = TempPath("short_payload.tenetemb");
  std::string content = "TENETEMB1";
  int32_t header[3] = {4, 2, 0};  // promises 2 vectors of dim 4
  content.append(reinterpret_cast<const char*>(header), sizeof(header));
  float payload[3] = {0.1f, 0.2f, 0.3f};  // delivers less than one
  content.append(reinterpret_cast<const char*>(payload), sizeof(payload));
  WriteFile(path, content);
  Result<embedding::EmbeddingStore> loaded = LoadEmbeddings(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(KbIoCorruptionTest, WrappingEmbeddingHeaderIsRejected) {
  // dim * (entities + predicates) * 4 + 21 wraps mod 2^64 to exactly the
  // 85 bytes of this file, and entities + predicates overflows int32: the
  // declared counts must be bounded by the payload before any arithmetic.
  std::string path = TempPath("wrapping_header.tenetemb");
  std::string content = "TENETEMB1";
  int32_t header[3] = {1073807362, 2147483647, 2147221513};
  content.append(reinterpret_cast<const char*>(header), sizeof(header));
  float payload[16] = {};
  content.append(reinterpret_cast<const char*>(payload), sizeof(payload));
  ASSERT_EQ(content.size(), 85u);
  WriteFile(path, content);
  Result<embedding::EmbeddingStore> loaded = LoadEmbeddings(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  Result<EmbFileInfo> info = InspectEmbeddingsFile(path);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kInvalidArgument);
}

TEST(KbIoCorruptionTest, InjectedWriteTruncationNeverPublishesATornFile) {
  // The fault point simulates a crash / full disk mid-write.  Snapshots go
  // through AtomicWriteFile, so the crash leaves half-written debris at
  // `<path>.tmp` — never a torn `path`: the target simply does not exist.
  std::string path = TempPath("torn_write.tenetkb");
  std::remove(path.c_str());
  {
    FaultInjector faults(41);
    faults.Arm("kb/io/write_truncation", 1.0);
    Status save = SaveKnowledgeBase(TinyKb(), path);
    ASSERT_FALSE(save.ok());
    EXPECT_TRUE(save.IsDataLoss());
    EXPECT_EQ(faults.FireCount("kb/io/write_truncation"), 1);
  }
  Result<KnowledgeBase> loaded = LoadKnowledgeBase(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
  // The realistic crash residue is there, and loaders never look at it.
  std::ifstream debris(path + ".tmp", std::ios::binary);
  EXPECT_TRUE(debris.good());
}

TEST(KbIoCorruptionTest, KillMidWriteLeavesThePreviousSnapshotIntact) {
  // The live-update story depends on this: a crash while re-snapshotting
  // (e.g. the background merge) must leave the previous generation's file
  // loadable, or a reboot after the crash has no KB at all.
  std::string path = TempPath("overwritten.tenetkb");
  ASSERT_TRUE(SaveKnowledgeBase(TinyKb(), path).ok());

  KnowledgeBase bigger;
  EntityId a = bigger.AddEntity("Alpha", EntityType::kPerson, 0, 2.0);
  EntityId b = bigger.AddEntity("Beta", EntityType::kLocation, 0, 1.0);
  PredicateId p = bigger.AddPredicate("linked to", 0, 1.0);
  ASSERT_TRUE(bigger.AddFact(a, p, b).ok());
  bigger.Finalize();
  {
    FaultInjector faults(44);
    faults.Arm("kb/io/write_truncation", 1.0);
    Status save = SaveKnowledgeBase(bigger, path);
    ASSERT_FALSE(save.ok());
    EXPECT_TRUE(save.IsDataLoss());
  }

  // The old snapshot survives, byte-for-byte loadable.
  Result<KnowledgeBase> loaded = LoadKnowledgeBase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_entities(), TinyKb().num_entities());
}

TEST(KbIoCorruptionTest, InjectedEmbeddingTruncationNeverPublishesATornFile) {
  datasets::SyntheticWorld world = datasets::BuildWorld();
  std::string path = TempPath("torn_write.tenetemb");
  std::remove(path.c_str());
  {
    FaultInjector faults(42);
    faults.Arm("kb/io/write_truncation", 1.0);
    Status save = SaveEmbeddings(world.embeddings, path);
    ASSERT_FALSE(save.ok());
    EXPECT_TRUE(save.IsDataLoss());
  }
  Result<embedding::EmbeddingStore> loaded = LoadEmbeddings(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(KbIoCorruptionTest, LoaderFaultPointsSurfaceAsDataLoss) {
  std::string kb_path = TempPath("loader_fault.tenetkb");
  ASSERT_TRUE(SaveKnowledgeBase(TinyKb(), kb_path).ok());
  FaultInjector faults(43);
  faults.Arm("kb/io/load_kb", 1.0);
  faults.Arm("kb/io/load_embeddings", 1.0);
  EXPECT_TRUE(LoadKnowledgeBase(kb_path).status().IsDataLoss());
  EXPECT_TRUE(LoadEmbeddings("unused.tenetemb").status().IsDataLoss());
}

}  // namespace
}  // namespace kb
}  // namespace tenet
