// FrozenAliasDict property and corruption tests (DESIGN.md §15).
//
// The dictionary is a drop-in replacement for the hash-map alias tier: for
// every probe — clean, case-varied, adversarially mutated, or post-delta —
// it must return candidate lists bit-identical to a plain hash-map replica
// of the same postings.  Its snapshot section must serialize
// deterministically (build-twice byte equality) and reject every corruption
// with kInvalidArgument, never a partially usable dictionary.
#include "kb/alias_dict.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "datasets/adversarial.h"
#include "datasets/document.h"
#include "kb/alias_index.h"
#include "kb/delta.h"
#include "kb/io.h"
#include "kb/synthetic_kb.h"

namespace tenet {
namespace kb {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Plain hash-map replica of a finalized index: folded surface -> postings
// in the index's own visitation order.  This is the structure the frozen
// dictionary replaced; every lookup must agree with it bit-exactly.
struct Replica {
  std::unordered_map<std::string, std::vector<AliasPosting>> postings;

  static Replica Of(const AliasIndex& index) {
    Replica replica;
    index.VisitPostings(
        [&replica](std::string_view surface, const AliasPosting& posting) {
          replica.postings[std::string(surface)].push_back(posting);
        });
    return replica;
  }

  std::vector<AliasPosting> Lookup(std::string_view probe,
                                   ConceptRef::Kind kind) const {
    auto it = postings.find(AsciiToLower(probe));
    std::vector<AliasPosting> out;
    if (it == postings.end()) return out;
    for (const AliasPosting& p : it->second) {
      if (p.concept_ref.kind == kind) out.push_back(p);
    }
    return out;
  }
};

void ExpectSamePostings(std::span<const AliasPosting> got,
                        std::span<const AliasPosting> want,
                        std::string_view probe) {
  ASSERT_EQ(got.size(), want.size()) << probe;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].concept_ref, want[i].concept_ref) << probe;
    EXPECT_EQ(got[i].prior, want[i].prior) << probe;  // bit-exact
  }
}

// Compares every surface of `replica` (plus the given extra probes, hit or
// miss) between the index and the replica, for both kinds.
void ExpectIndexMatchesReplica(const AliasIndex& index,
                               const Replica& replica,
                               std::span<const std::string> extra_probes) {
  for (const auto& [surface, postings] : replica.postings) {
    ExpectSamePostings(index.LookupEntities(surface),
                       replica.Lookup(surface, ConceptRef::Kind::kEntity),
                       surface);
    ExpectSamePostings(
        index.LookupPredicates(surface),
        replica.Lookup(surface, ConceptRef::Kind::kPredicate), surface);
  }
  for (const std::string& probe : extra_probes) {
    ExpectSamePostings(index.LookupEntities(probe),
                       replica.Lookup(probe, ConceptRef::Kind::kEntity),
                       probe);
    ExpectSamePostings(
        index.LookupPredicates(probe),
        replica.Lookup(probe, ConceptRef::Kind::kPredicate), probe);
  }
}

// The postings of `list` of one kind, in their order in `list`.
std::vector<AliasPosting> Grouped(std::span<const AliasPosting> list,
                                  bool entities) {
  std::vector<AliasPosting> out;
  for (const AliasPosting& p : list) {
    if (p.concept_ref.is_entity() == entities) out.push_back(p);
  }
  return out;
}

// --- direct Builder/Parse unit tests ---------------------------------------

TEST(FrozenAliasDictTest, EmptyDictionaryRoundTrips) {
  std::shared_ptr<const FrozenAliasDict> dict =
      std::move(FrozenAliasDict::Builder{}).Build();
  EXPECT_EQ(dict->num_surfaces(), 0u);
  EXPECT_EQ(dict->num_postings(), 0u);
  EXPECT_EQ(dict->Find("anything"), -1);
  EXPECT_TRUE(dict->Entities("anything").empty());

  std::vector<unsigned char> bytes = dict->Serialize();
  Result<std::shared_ptr<const FrozenAliasDict>> parsed =
      FrozenAliasDict::Parse(bytes, FrozenAliasDict::ParseLimits{0, 0});
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ((*parsed)->num_surfaces(), 0u);
  EXPECT_EQ((*parsed)->Serialize(), bytes);
}

TEST(FrozenAliasDictTest, GroupedPostingsRoundTripExactly) {
  // Mixed entity/predicate lists added in a deliberately non-grouped
  // interleave; enough keys to cross several front-coding blocks.
  constexpr int kKeys = 3 * FrozenAliasDict::kBlockSize + 5;
  std::vector<std::pair<std::string, std::vector<AliasPosting>>> rows;
  for (int i = 0; i < kKeys; ++i) {
    std::string key = "alias key " + std::string(1, 'a' + (i / 10)) +
                      std::to_string(i % 10);
    std::vector<AliasPosting> list;
    list.push_back({ConceptRef::Entity(i), 0.5});
    if (i % 2 == 0) list.push_back({ConceptRef::Predicate(i), 0.3});
    if (i % 3 == 0) list.push_back({ConceptRef::Entity(i + 100), 0.2});
    rows.push_back({std::move(key), std::move(list)});
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  FrozenAliasDict::Builder builder;
  for (const auto& [key, list] : rows) builder.Add(key, list);
  std::shared_ptr<const FrozenAliasDict> dict = std::move(builder).Build();

  ASSERT_EQ(dict->num_surfaces(), static_cast<uint64_t>(kKeys));
  for (const auto& [key, list] : rows) {
    const int64_t sid = dict->Find(key);
    ASSERT_GE(sid, 0) << key;
    std::string decoded;
    dict->KeyAt(sid, &decoded);
    EXPECT_EQ(decoded, key);
    // Case-folded probe finds the same sid.
    std::string upper = key;
    for (char& c : upper) c = static_cast<char>(std::toupper(c));
    EXPECT_EQ(dict->Find(upper), sid) << key;
    // Kind-filtered spans preserve within-kind order.
    ExpectSamePostings(dict->EntitiesAt(sid), Grouped(list, true), key);
    ExpectSamePostings(dict->PredicatesAt(sid), Grouped(list, false), key);
  }
  EXPECT_EQ(dict->Find("alias key"), -1);          // prefix of a real key
  EXPECT_EQ(dict->Find("alias key a00 more"), -1); // extension of one
  EXPECT_EQ(dict->Find(""), -1);

  // Serialize -> Parse -> Serialize is byte-identical, and the parsed
  // dictionary visits the same surfaces, each with its grouped list:
  // entities, then predicates, each kind in its added order.
  std::vector<unsigned char> bytes = dict->Serialize();
  Result<std::shared_ptr<const FrozenAliasDict>> parsed =
      FrozenAliasDict::Parse(bytes,
                             FrozenAliasDict::ParseLimits{1000, 1000});
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ((*parsed)->Serialize(), bytes);
  size_t row = 0;
  (*parsed)->VisitSurfaces(
      [&](std::string_view surface, std::span<const AliasPosting> postings) {
        ASSERT_LT(row, rows.size());
        EXPECT_EQ(surface, rows[row].first);
        std::vector<AliasPosting> grouped = Grouped(rows[row].second, true);
        for (const AliasPosting& p : Grouped(rows[row].second, false)) {
          grouped.push_back(p);
        }
        ExpectSamePostings(postings, grouped, surface);
        ++row;
      });
  EXPECT_EQ(row, rows.size());
}

// --- property: dictionary == hash map, across tiers -------------------------

class AliasDictTierTest
    : public ::testing::TestWithParam<const char*> {};

SyntheticKbOptions TierOptions(const std::string& tier) {
  if (tier == "huge") return SyntheticKbOptions::Huge();
  SyntheticKbOptions options;
  if (tier == "small") {
    options.num_domains = 2;
    options.entities_per_domain = 12;
  } else {  // medium
    options.num_domains = 8;
    options.entities_per_domain = 120;
  }
  return options;
}

TEST_P(AliasDictTierTest, LookupsMatchHashMapReplica) {
  Rng rng(93);
  SyntheticKb world =
      SyntheticKbGenerator(TierOptions(GetParam())).Generate(rng);
  const AliasIndex& index = world.kb.alias_index();
  Replica replica = Replica::Of(index);
  ASSERT_EQ(index.num_surfaces(), replica.postings.size());

  std::vector<std::string> misses = {"", "no such surface", "NO SUCH",
                                     std::string(300, 'q'),
                                     "caf\xC3\xA9 missing"};
  // Case-varied hits exercise the fold-on-the-fly probe path.
  size_t sampled = 0;
  for (const auto& [surface, postings] : replica.postings) {
    if (++sampled % 7 != 0) continue;
    std::string upper = surface;
    for (char& c : upper) c = static_cast<char>(std::toupper(c));
    misses.push_back(upper);  // a hit, despite the vector's name
  }
  ExpectIndexMatchesReplica(index, replica, misses);
}

INSTANTIATE_TEST_SUITE_P(Tiers, AliasDictTierTest,
                         ::testing::Values("small", "medium", "huge"));

// --- property: adversarial probes -------------------------------------------

TEST(AliasDictPropertyTest, AdversarialProbesAgreeWithReplica) {
  Rng rng(94);
  SyntheticKbOptions options;
  options.num_domains = 6;
  options.entities_per_domain = 80;
  SyntheticKb world = SyntheticKbGenerator(options).Generate(rng);
  const AliasIndex& index = world.kb.alias_index();
  Replica replica = Replica::Of(index);

  // Feed real surfaces through the adversarial mutator (typos, OCR
  // confusions, Cyrillic homoglyphs — multi-byte UTF-8 included) and probe
  // with every mutated token and line.  Hits and misses alike must agree.
  datasets::Document doc;
  doc.id = "alias-dict-adversarial";
  size_t sampled = 0;
  for (const auto& [surface, postings] : replica.postings) {
    if (++sampled % 5 != 0) continue;
    doc.text += surface;
    doc.text += ". ";
  }
  datasets::AdversarialSpec spec;
  spec.seed = 4242;
  datasets::AdversarialMutator mutator(spec);
  std::vector<std::string> probes;
  for (uint64_t salt = 0; salt < 4; ++salt) {
    datasets::Document mutated = mutator.Mutate(doc, salt);
    std::istringstream lines(mutated.text);
    std::string line;
    while (std::getline(lines, line, '.')) {
      if (!line.empty() && line.front() == ' ') line.erase(0, 1);
      probes.push_back(line);
      std::istringstream words(line);
      std::string word;
      while (words >> word) probes.push_back(word);
    }
  }
  ASSERT_GT(probes.size(), 100u);
  ExpectIndexMatchesReplica(index, replica, probes);
}

// --- property: post-delta state ---------------------------------------------

TEST(AliasDictPropertyTest, PostDeltaDictMatchesReplica) {
  Rng rng(95);
  SyntheticKbOptions options;
  options.num_domains = 4;
  options.entities_per_domain = 40;
  SyntheticKb world = SyntheticKbGenerator(options).Generate(rng);
  const KnowledgeBase& base = world.kb;

  embedding::EmbeddingStore embeddings(4, base.num_entities(),
                                       base.num_predicates());
  embeddings.Finalize();

  DeltaBuilder builder(base);
  const std::string adjusted = base.entity(0).label;
  builder.AdjustEntityAliasPrior(0, adjusted, 3.5);
  EntityId added = builder.AddEntity("Delta Added Entity",
                                     EntityType::kOther, 0, 2.0);
  builder.AddEntityAlias(added, "brand new alias", 1.0);
  builder.AddEntityAlias(added, base.entity(1).label, 0.5);  // pile onto
  builder.TombstoneEntity(2);
  DeltaSegment segment = builder.Build();

  Result<AppliedDelta> applied =
      ApplyDeltas(base, embeddings, std::span(&segment, 1));
  ASSERT_TRUE(applied.ok()) << applied.status();
  const AliasIndex& updated = applied->kb.alias_index();

  Replica replica = Replica::Of(updated);
  std::vector<std::string> probes = {AsciiToLower(adjusted),
                                     "brand new alias",
                                     AsciiToLower(base.entity(1).label),
                                     AsciiToLower(base.entity(2).label),
                                     "delta added entity"};
  ExpectIndexMatchesReplica(updated, replica, probes);

  // Tombstoned surfaces are really gone.
  const std::string dead = AsciiToLower(base.entity(2).label);
  if (replica.postings.find(dead) == replica.postings.end()) {
    EXPECT_TRUE(updated.LookupEntities(dead).empty());
  }

  // A snapshot of the composed KB round-trips: the reloaded index matches
  // the same replica.
  const std::string path = TempPath("post_delta.tenetkb");
  ASSERT_TRUE(SaveKnowledgeBase(applied->kb, path).ok());
  Result<KnowledgeBase> loaded = LoadKnowledgeBase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->alias_index().num_surfaces(), replica.postings.size());
  ExpectIndexMatchesReplica(loaded->alias_index(), replica, probes);
}

// --- determinism: build-twice byte equality ---------------------------------

TEST(AliasDictSnapshotTest, SnapshotBytesAreDeterministic) {
  Rng rng(96);
  SyntheticKbOptions options;
  options.num_domains = 4;
  options.entities_per_domain = 30;
  SyntheticKb world = SyntheticKbGenerator(options).Generate(rng);

  // Same KB saved twice: byte-identical files.
  std::string path_a = TempPath("dict_det_a.tenetkb");
  std::string path_b = TempPath("dict_det_b.tenetkb");
  ASSERT_TRUE(SaveKnowledgeBase(world.kb, path_a).ok());
  ASSERT_TRUE(SaveKnowledgeBase(world.kb, path_b).ok());
  EXPECT_EQ(ReadFileBytes(path_a), ReadFileBytes(path_b));

  // Save -> load -> save reproduces the same bytes (the dictionary
  // serializes surfaces in sorted folded order, not hash order).
  Result<KnowledgeBase> loaded = LoadKnowledgeBase(path_a);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  std::string path_c = TempPath("dict_det_c.tenetkb");
  ASSERT_TRUE(SaveKnowledgeBase(*loaded, path_c).ok());
  EXPECT_EQ(ReadFileBytes(path_a), ReadFileBytes(path_c));
}

// --- corruption matrix: alias_dict section ----------------------------------

struct DictSection {
  size_t offset = 0;
  size_t size = 0;
  uint64_t count = 0;
};

// Locates the alias_dict section (id 7) in a TENETKB2 file.
DictSection FindDictSection(const std::string& bytes) {
  uint32_t section_count = 0;
  std::memcpy(&section_count, bytes.data() + 12, sizeof(section_count));
  for (uint32_t i = 0; i < section_count; ++i) {
    const char* entry = bytes.data() + 32 + i * 32;
    uint32_t id = 0;
    std::memcpy(&id, entry, sizeof(id));
    if (id != 7) continue;
    DictSection s;
    uint64_t offset = 0;
    uint64_t size = 0;
    std::memcpy(&offset, entry + 8, sizeof(offset));
    std::memcpy(&size, entry + 16, sizeof(size));
    std::memcpy(&s.count, entry + 24, sizeof(s.count));
    s.offset = static_cast<size_t>(offset);
    s.size = static_cast<size_t>(size);
    return s;
  }
  ADD_FAILURE() << "no alias_dict section found";
  return {};
}

// Recomputes the dictionary's own payload checksum after a deliberate
// corruption, so the structural validation — not the checksum — must
// reject the bytes.
void ResealDictChecksum(std::string* bytes, const DictSection& dict) {
  uint64_t checksum =
      Fnv1a64(bytes->data() + dict.offset + 8, dict.size - 8);
  std::memcpy(bytes->data() + dict.offset, &checksum, sizeof(checksum));
}

class AliasDictCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(97);
    SyntheticKbOptions options;
    options.num_domains = 2;
    options.entities_per_domain = 10;
    SyntheticKb world = SyntheticKbGenerator(options).Generate(rng);
    path_ = TempPath("dict_corrupt.tenetkb");
    ASSERT_TRUE(SaveKnowledgeBase(world.kb, path_).ok());
    bytes_ = ReadFileBytes(path_);
    dict_ = FindDictSection(bytes_);
    ASSERT_GT(dict_.size, 56u);
    ASSERT_GT(dict_.count, 0u);
  }

  // Writes the corrupted bytes and expects a clean kInvalidArgument.
  void ExpectRejected(const std::string& bytes, const char* what) {
    WriteFile(path_, bytes);
    Result<KnowledgeBase> loaded = LoadKnowledgeBase(path_);
    ASSERT_FALSE(loaded.ok()) << what;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << what;
  }

  std::string path_;
  std::string bytes_;
  DictSection dict_;
};

TEST_F(AliasDictCorruptionTest, PayloadBitFlipFailsTheChecksum) {
  std::string bytes = bytes_;
  // Flip one bit in the posting arena (the payload tail), leaving the
  // checksum stale.
  bytes[dict_.offset + dict_.size - 4] ^= 0x01;
  WriteFile(path_, bytes);
  Result<KnowledgeBase> loaded = LoadKnowledgeBase(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos)
      << loaded.status().message();
}

TEST_F(AliasDictCorruptionTest, TruncationInsideTheDictionaryIsRejected) {
  // The dictionary is the last section; any cut inside it truncates the
  // file below the header's declared size.
  for (size_t cut : {dict_.offset + 8, dict_.offset + 56,
                     dict_.offset + dict_.size - 1}) {
    ExpectRejected(bytes_.substr(0, cut), "truncated dictionary");
  }
}

TEST_F(AliasDictCorruptionTest, UnknownVersionIsRejected) {
  // Version 2 carried a kind-bit array after the entity splits; a version
  // 3 payload relabelled as 2 must not be read as one.
  for (uint32_t version : {uint32_t{2}, uint32_t{99}}) {
    std::string bytes = bytes_;
    std::memcpy(bytes.data() + dict_.offset + 8, &version, sizeof(version));
    ResealDictChecksum(&bytes, dict_);
    ExpectRejected(bytes, "bad version");
  }
}

TEST_F(AliasDictCorruptionTest, BadRestartOffsetsAreRejected) {
  // Header fields at payload offsets 16..28: num_surfaces, num_blocks,
  // max_key_bytes, pad.  The block-offset array is the first one after the
  // 56-byte header.
  const char* payload = bytes_.data() + dict_.offset;
  uint32_t num_blocks = 0;
  std::memcpy(&num_blocks, payload + 20, sizeof(num_blocks));
  ASSERT_GT(num_blocks, 0u);
  const size_t pos = 56;
  // block_offsets[0] must be 0; block_offsets must stay monotone and end
  // at the key-blob size.  Break each invariant in turn.
  for (uint32_t bogus : {uint32_t{1}, uint32_t{0x7fffffff}}) {
    std::string bytes = bytes_;
    std::memcpy(bytes.data() + dict_.offset + pos, &bogus, sizeof(bogus));
    ResealDictChecksum(&bytes, dict_);
    ExpectRejected(bytes, "bad restart offset");
  }
  if (num_blocks > 1) {
    // A non-monotone interior restart offset.
    std::string bytes = bytes_;
    uint32_t bogus = 0xffffff00;
    std::memcpy(bytes.data() + dict_.offset + pos + sizeof(uint32_t),
                &bogus, sizeof(bogus));
    ResealDictChecksum(&bytes, dict_);
    ExpectRejected(bytes, "non-monotone restart offset");
  }
}

TEST_F(AliasDictCorruptionTest, GarbledKeyBlobIsRejected) {
  // Stomp the head of the front-coded key blob (the 8-aligned region just
  // before the posting arena) with varint garbage: the first key's length
  // varint never terminates.
  uint64_t key_blob_bytes = 0;
  std::memcpy(&key_blob_bytes, bytes_.data() + dict_.offset + 40,
              sizeof(key_blob_bytes));
  ASSERT_GE(key_blob_bytes, 8u);
  std::string bytes = bytes_;
  const size_t postings_bytes = static_cast<size_t>(dict_.count) * 16;
  const size_t blob_head = dict_.offset + dict_.size - postings_bytes -
                           ((key_blob_bytes + 7) & ~uint64_t{7});
  for (int i = 0; i < 8; ++i) {
    bytes[blob_head + i] = static_cast<char>(0xff);
  }
  ResealDictChecksum(&bytes, dict_);
  ExpectRejected(bytes, "garbled key blob");
}

TEST_F(AliasDictCorruptionTest, WrapInducingHeaderCountsAreRejected) {
  // num_postings and key_blob_bytes are free u64 header fields.  Craft a
  // pair whose unchecked expected-size sum wraps mod 2^64 back to the real
  // section size: num_postings = 2^60 contributes 2^60 * 16 = 0 (mod 2^64)
  // posting bytes, and key_blob_bytes takes the rest of the section.  A
  // parser doing unchecked arithmetic would pass its exact-size check and
  // then read far past the ~KB payload; the counts must instead be
  // rejected up front with kInvalidArgument.
  const char* payload = bytes_.data() + dict_.offset;
  uint32_t num_surfaces = 0;
  uint32_t num_blocks = 0;
  std::memcpy(&num_surfaces, payload + 16, sizeof(num_surfaces));
  std::memcpy(&num_blocks, payload + 20, sizeof(num_blocks));
  auto aligned8 = [](uint64_t n) { return (n + 7) & ~uint64_t{7}; };
  uint64_t fixed = 56;
  fixed += aligned8((num_blocks + uint64_t{1}) * 4);    // block_offsets
  fixed += aligned8((num_surfaces + uint64_t{1}) * 4);  // posting_offsets
  fixed += aligned8(uint64_t{num_surfaces} * 4);        // entity_splits
  const uint64_t num_postings = uint64_t{1} << 60;  // * 16 wraps to 0
  const uint64_t key_blob_bytes = uint64_t{dict_.size} - fixed;
  // Sanity: these counts reproduce the section size exactly under wrapping
  // u64 arithmetic (key_blob_bytes lands 8-aligned, so aligned8 is a
  // no-op on it) — i.e. an unchecked parser would accept them.
  ASSERT_EQ(key_blob_bytes % 8, 0u);
  ASSERT_EQ(fixed + aligned8(key_blob_bytes) + num_postings * 16,
            uint64_t{dict_.size});
  std::string bytes = bytes_;
  std::memcpy(bytes.data() + dict_.offset + 32, &num_postings,
              sizeof(num_postings));
  std::memcpy(bytes.data() + dict_.offset + 40, &key_blob_bytes,
              sizeof(key_blob_bytes));
  ResealDictChecksum(&bytes, dict_);
  ExpectRejected(bytes, "wrap-inducing header counts");
}

TEST_F(AliasDictCorruptionTest, NonzeroHeaderPadIsRejected) {
  std::string bytes = bytes_;
  uint32_t pad = 1;
  std::memcpy(bytes.data() + dict_.offset + 28, &pad, sizeof(pad));
  ResealDictChecksum(&bytes, dict_);
  ExpectRejected(bytes, "nonzero header pad");
}

TEST_F(AliasDictCorruptionTest, SectionTableTamperingIsRejected) {
  // Rewrite the facts entry's id to 7, yielding a table with two
  // alias_dict entries and no facts section.  The header checksum over the
  // table is re-sealed so the structural checks must do the rejecting.
  std::string bytes = bytes_;
  uint32_t section_count = 0;
  std::memcpy(&section_count, bytes.data() + 12, sizeof(section_count));
  for (uint32_t i = 0; i < section_count; ++i) {
    char* entry = bytes.data() + 32 + i * 32;
    uint32_t id = 0;
    std::memcpy(&id, entry, sizeof(id));
    if (id == 5) {
      uint32_t dict_id = 7;
      std::memcpy(entry, &dict_id, sizeof(dict_id));
    }
  }
  uint64_t header_checksum =
      Fnv1a64(bytes.data() + 32, size_t{section_count} * 32);
  std::memcpy(bytes.data() + 24, &header_checksum, sizeof(header_checksum));
  ExpectRejected(bytes, "duplicate alias_dict section");
}

}  // namespace
}  // namespace kb
}  // namespace tenet
