// Golden digest of the text front end: tokenization, the extractor's four
// passes and the canopy builder.  Every later layer reads the mention set
// this builds, so a rewrite of the tokenizer, the word-class probes, the
// gazetteer probes or the canopy interning must reproduce it exactly,
// document for document.  The digest hashes, per document:
//   * every token's text, sentence and punctuation flag;
//   * every short mention's surface, type, sentence and token range;
//   * every feature link's kind and joining text;
//   * every relation's lemma, raw text, sentence and token range;
//   * the guard report of ExtractFromText;
//   * the MentionSet: per mention its kind, surface, type, sentences and
//     group; per group its members, short mentions and canopies.
// Inputs: the four standard corpora, their AdversarialMutator mutations,
// and MSNBC19-profile documents over the Huge KB, each also lower-cased so
// that pass 2's gazetteer n-grams fire.  Each input runs under the world's
// gazetteer and under the one kb::DeriveGazetteer builds from the same KB,
// which is the one a loaded snapshot serves with; the derived one marks
// every surface lowercase-spottable, so its pass-2 window is 7-8 tokens
// against the world's 2-3.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/utf8.h"
#include "core/canopy.h"
#include "datasets/adversarial.h"
#include "datasets/corpus_generator.h"
#include "datasets/spec.h"
#include "datasets/world.h"
#include "kb/io.h"
#include "kb/synthetic_kb.h"
#include "text/extraction.h"
#include "text/tokenizer.h"

namespace tenet {
namespace core {
namespace {

// The documents of one world.
struct Inputs {
  const datasets::SyntheticWorld* world = nullptr;
  std::vector<datasets::Document> documents;
};

const datasets::SyntheticWorld& DefaultWorld() {
  static const datasets::SyntheticWorld* world =
      new datasets::SyntheticWorld(datasets::BuildWorld());
  return *world;
}

const datasets::SyntheticWorld& HugeWorld() {
  static const datasets::SyntheticWorld* world = [] {
    datasets::WorldOptions options;
    options.kb = kb::SyntheticKbOptions::Huge();
    return new datasets::SyntheticWorld(datasets::BuildWorld(options));
  }();
  return *world;
}

// The four corpora and their mutations over the default world, then 20
// MSNBC19-profile documents over the Huge world.
const std::vector<Inputs>& AllInputs() {
  static const std::vector<Inputs>* inputs = [] {
    auto* all = new std::vector<Inputs>(2);
    (*all)[0].world = &DefaultWorld();
    datasets::CorpusGenerator generator(&DefaultWorld().kb_world);
    Rng rng(91);
    datasets::AdversarialMutator mutator{datasets::AdversarialSpec{}};
    for (const datasets::DatasetSpec& spec :
         {datasets::NewsSpec(), datasets::TRex42Spec(), datasets::Kore50Spec(),
          datasets::Msnbc19Spec()}) {
      datasets::Dataset clean = generator.Generate(spec, rng);
      datasets::Dataset mutated = mutator.Mutate(clean);
      for (datasets::Document& doc : clean.documents) {
        (*all)[0].documents.push_back(std::move(doc));
      }
      for (datasets::Document& doc : mutated.documents) {
        (*all)[0].documents.push_back(std::move(doc));
      }
    }
    (*all)[1].world = &HugeWorld();
    datasets::CorpusGenerator huge_generator(&HugeWorld().kb_world);
    Rng huge_rng(92);
    datasets::DatasetSpec huge_spec = datasets::Msnbc19Spec();
    huge_spec.num_docs = 20;
    (*all)[1].documents =
        huge_generator.Generate(huge_spec, huge_rng).documents;
    return all;
  }();
  return *inputs;
}

// FNV-1a over 64-bit words.
class Digest {
 public:
  void Add(uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      state_ ^= (word >> (8 * byte)) & 0xff;
      state_ *= 0x100000001b3ULL;
    }
  }
  void AddInt(int64_t value) { Add(static_cast<uint64_t>(value)); }
  void AddString(std::string_view s) {
    AddInt(static_cast<int64_t>(s.size()));
    for (char c : s) Add(static_cast<unsigned char>(c));
  }
  void AddType(const std::optional<kb::EntityType>& type) {
    AddInt(type.has_value() ? static_cast<int64_t>(*type) : -1);
  }
  void AddIds(const std::vector<int>& ids) {
    AddInt(static_cast<int64_t>(ids.size()));
    for (int id : ids) AddInt(id);
  }
  uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0xcbf29ce484222325ULL;
};

struct GoldenRun {
  uint64_t digest = 0;
  int documents = 0;
  int64_t tokens = 0;
  int64_t short_mentions = 0;
  int64_t links = 0;
  int64_t relations = 0;
  int64_t mentions = 0;
};

void DigestDocument(const text::Extractor& extractor,
                    const text::Gazetteer& gazetteer, const std::string& text,
                    Digest& digest, GoldenRun& run) {
  // The tokens ExtractFromText sees: invalid bytes sanitized first.
  const std::string input =
      IsValidUtf8(text) ? text : SanitizeUtf8(text);
  text::TextGuardReport token_report;
  text::TokenizedDocument doc =
      text::Tokenize(input, text::TextLimits{}, &token_report);
  digest.AddInt(static_cast<int64_t>(doc.tokens.size()));
  for (const text::Token& token : doc.tokens) {
    digest.AddString(token.t);
    digest.AddInt(token.sentence);
    digest.AddInt(token.is_punct() ? 1 : 0);
  }
  run.tokens += static_cast<int64_t>(doc.tokens.size());

  text::TextGuardReport report;
  Result<text::ExtractionResult> extraction =
      extractor.ExtractFromText(text, text::TextLimits{}, &report);
  digest.AddInt(static_cast<int64_t>(report.invalid_utf8_bytes));
  digest.AddInt(report.truncated_tokens);
  digest.AddInt(report.token_cap_hit ? 1 : 0);
  digest.AddInt(report.dropped_mentions);
  digest.AddInt(report.dropped_relations);
  digest.AddInt(report.truncated_candidates);
  if (!extraction.ok()) {
    digest.AddInt(-1);
    digest.AddInt(static_cast<int64_t>(extraction.status().code()));
    return;
  }

  digest.AddInt(static_cast<int64_t>(extraction->mentions.size()));
  for (const text::ShortMention& m : extraction->mentions) {
    digest.AddString(m.surface);
    digest.AddType(m.type);
    digest.AddInt(m.sentence);
    digest.AddInt(m.token_begin);
    digest.AddInt(m.token_end);
  }
  digest.AddInt(static_cast<int64_t>(extraction->link_after.size()));
  for (const std::optional<text::Connector>& link : extraction->link_after) {
    if (!link.has_value()) {
      digest.AddInt(-1);
      continue;
    }
    digest.AddInt(static_cast<int64_t>(link->kind));
    digest.AddString(link->joining_text);
    ++run.links;
  }
  digest.AddInt(static_cast<int64_t>(extraction->relations.size()));
  for (const text::ExtractedRelation& r : extraction->relations) {
    digest.AddString(r.lemma);
    digest.AddString(r.raw);
    digest.AddInt(r.sentence);
    digest.AddInt(r.token_begin);
    digest.AddInt(r.token_end);
  }
  run.short_mentions += static_cast<int64_t>(extraction->mentions.size());
  run.relations += static_cast<int64_t>(extraction->relations.size());

  MentionSet set = BuildMentionSet(*extraction, &gazetteer);
  digest.AddInt(set.num_mentions());
  for (const Mention& m : set.mentions) {
    digest.AddInt(static_cast<int64_t>(m.kind));
    digest.AddString(m.surface);
    digest.AddType(m.type);
    digest.AddIds(m.sentences);
    digest.AddInt(m.group);
  }
  digest.AddInt(set.num_groups());
  for (const MentionGroup& g : set.groups) {
    digest.AddIds(g.members);
    digest.AddIds(g.short_mentions);
    digest.AddInt(static_cast<int64_t>(g.canopies.size()));
    for (const Canopy& c : g.canopies) digest.AddIds(c.mentions);
  }
  run.mentions += set.num_mentions();
}

// Runs every input through the front end, under the world's gazetteer or
// under the one derived from the world's KB.
GoldenRun DigestAll(bool derived) {
  GoldenRun run;
  Digest digest;
  for (const Inputs& inputs : AllInputs()) {
    const text::Gazetteer derived_gazetteer =
        derived ? kb::DeriveGazetteer(inputs.world->kb()) : text::Gazetteer();
    const text::Gazetteer& gazetteer =
        derived ? derived_gazetteer : inputs.world->gazetteer();
    const text::Extractor extractor(&gazetteer);
    for (const datasets::Document& doc : inputs.documents) {
      DigestDocument(extractor, gazetteer, doc.text, digest, run);
      DigestDocument(extractor, gazetteer, AsciiToLower(doc.text), digest,
                     run);
      run.documents += 2;
    }
  }
  run.digest = digest.value();
  return run;
}

std::string Hex(uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

constexpr int kDocuments = 2 * (2 * (16 + 42 + 50 + 19) + 20);

void Report(const char* label, const GoldenRun& run) {
  std::printf(
      "%s: %d documents, %lld tokens, %lld short mentions, %lld links, "
      "%lld relations, %lld mentions, digest %s\n",
      label, run.documents, static_cast<long long>(run.tokens),
      static_cast<long long>(run.short_mentions),
      static_cast<long long>(run.links),
      static_cast<long long>(run.relations),
      static_cast<long long>(run.mentions), Hex(run.digest).c_str());
}

TEST(FrontEndGoldenTest, WorldGazetteerMatchesRecordedDigest) {
  GoldenRun run = DigestAll(/*derived=*/false);
  Report("world gazetteer", run);
  EXPECT_EQ(run.documents, kDocuments);
  EXPECT_GT(run.links, 0);
  EXPECT_GT(run.relations, 0);
  EXPECT_EQ(Hex(run.digest), "0x505d9018bea4e7f6");
}

TEST(FrontEndGoldenTest, DerivedGazetteerMatchesRecordedDigest) {
  GoldenRun run = DigestAll(/*derived=*/true);
  Report("derived gazetteer", run);
  EXPECT_EQ(run.documents, kDocuments);
  EXPECT_GT(run.links, 0);
  EXPECT_GT(run.relations, 0);
  EXPECT_EQ(Hex(run.digest), "0x48a79e6bd86bb0da");
}

}  // namespace
}  // namespace core
}  // namespace tenet
