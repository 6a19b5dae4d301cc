// Tests for the NLP substrate: tokenizer, word classes, lemmatizer,
// features, gazetteer.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "text/features.h"
#include "text/gazetteer.h"
#include "text/lemmatizer.h"
#include "text/tokenizer.h"
#include "text/wordlists.h"

namespace tenet {
namespace text {
namespace {

// ---- Tokenizer ------------------------------------------------------------

TEST(TokenizerTest, SplitsWordsAndPunctuation) {
  TokenizedDocument doc = Tokenize("Rembrandt painted The Storm.");
  ASSERT_EQ(doc.tokens.size(), 5u);
  EXPECT_EQ(doc.tokens[0].t, "Rembrandt");
  EXPECT_EQ(doc.tokens[3].t, "Storm");
  EXPECT_EQ(doc.tokens[4].t, ".");
  EXPECT_TRUE(doc.tokens[4].is_punct());
  EXPECT_EQ(doc.num_sentences(), 1);
}

TEST(TokenizerTest, SentenceBoundaries) {
  TokenizedDocument doc = Tokenize("He left. She stayed! Done?");
  EXPECT_EQ(doc.num_sentences(), 3);
  EXPECT_EQ(doc.sentence_begin[0], 0);
  EXPECT_EQ(doc.tokens[doc.sentence_begin[1]].t, "She");
  EXPECT_EQ(doc.tokens[doc.sentence_begin[2]].t, "Done");
  // Every token's sentence field is consistent with boundaries.
  for (int s = 0; s < doc.num_sentences(); ++s) {
    for (int i = doc.sentence_begin[s]; i < doc.SentenceEnd(s); ++i) {
      EXPECT_EQ(doc.tokens[i].sentence, s);
    }
  }
}

TEST(TokenizerTest, ColonIsPunctuationButNotSentenceEnd) {
  TokenizedDocument doc = Tokenize("Winter Crown: Harvest Elegy is good.");
  EXPECT_EQ(doc.num_sentences(), 1);
  EXPECT_EQ(doc.tokens[2].t, ":");
  EXPECT_TRUE(doc.tokens[2].is_punct());
}

TEST(TokenizerTest, IntraWordHyphenKept) {
  TokenizedDocument doc = Tokenize("A co-author spoke - loudly.");
  bool found = false;
  for (const Token& t : doc.tokens) {
    if (t.t == "co-author") found = true;
  }
  EXPECT_TRUE(found);
  // Free-standing hyphen is punctuation.
  int hyphens = 0;
  for (const Token& t : doc.tokens) {
    if (t.t == "-" && t.is_punct()) ++hyphens;
  }
  EXPECT_EQ(hyphens, 1);
}

TEST(TokenizerTest, EmptyAndWhitespaceOnly) {
  EXPECT_TRUE(Tokenize("").tokens.empty());
  EXPECT_TRUE(Tokenize("   \n\t ").tokens.empty());
  EXPECT_EQ(Tokenize("").num_sentences(), 0);
}

TEST(TokenizerTest, NumbersAreTokens) {
  TokenizedDocument doc = Tokenize("Apollo 11 mission");
  ASSERT_EQ(doc.tokens.size(), 3u);
  EXPECT_EQ(doc.tokens[1].t, "11");
  EXPECT_FALSE(doc.tokens[1].is_punct());
}

TEST(TokenizerTest, HighBitBytesAgreeWithAsciiCaseFold) {
  // The gazetteer folds surfaces with the ASCII-only AsciiToLower, so the
  // tokenizer must place identical token boundaries before and after the
  // fold — including through multi-byte UTF-8 (high-bit bytes are
  // word-continuation, never boundaries) and around stray invalid bytes
  // (skipped outside word runs).  A locale-leaking isalnum/tolower breaks
  // exactly this agreement.
  const char* kDocs[] = {
      "Caf\xC3\xA9 MAN visited Z\xC3\xBCrich.",   // é, ü mid-word
      "\xD0\x90pple met \xD0\x90PPLE",            // Cyrillic А lead byte
      "Smile \xF0\x9F\x99\x82 now!",              // 4-byte emoji island
      "A\x80Z mixed \xFFQ end",                   // stray invalid bytes
  };
  for (const char* raw : kDocs) {
    SCOPED_TRACE(raw);
    const std::string text = raw;
    TokenizedDocument upper = Tokenize(text);
    TokenizedDocument lower = Tokenize(AsciiToLower(text));
    ASSERT_EQ(upper.tokens.size(), lower.tokens.size());
    for (size_t i = 0; i < upper.tokens.size(); ++i) {
      EXPECT_EQ(AsciiToLower(upper.tokens[i].t), lower.tokens[i].t);
      EXPECT_EQ(upper.tokens[i].sentence, lower.tokens[i].sentence);
      EXPECT_EQ(upper.tokens[i].is_punct(), lower.tokens[i].is_punct());
    }
    EXPECT_EQ(upper.num_sentences(), lower.num_sentences());
  }
}

// ---- Lemmatizer -----------------------------------------------------------

// The lemma the extractor gives the relational phrase `phrase`, whose first
// token is a verb form.
std::string Lemma(std::string_view phrase) {
  TokenizedDocument doc = Tokenize(phrase);
  return LemmatizeRelation(doc, 0, static_cast<int>(doc.tokens.size()));
}

TEST(LemmatizerTest, IrregularVerbsFromTable) {
  EXPECT_EQ(Lemma("wrote"), "write");
  EXPECT_EQ(Lemma("taught"), "teach");
  EXPECT_EQ(Lemma("won"), "win");
  EXPECT_EQ(Lemma("led"), "lead");
  EXPECT_EQ(Lemma("bought"), "buy");
}

TEST(LemmatizerTest, RegularInflections) {
  EXPECT_EQ(Lemma("visited"), "visit");
  EXPECT_EQ(Lemma("studies"), "study");
  EXPECT_EQ(Lemma("studied"), "study");
  EXPECT_EQ(Lemma("paints"), "paint");
  EXPECT_EQ(Lemma("painting"), "paint");
  EXPECT_EQ(Lemma("starred"), "star");
}

TEST(LemmatizerTest, CaseInsensitive) {
  EXPECT_EQ(Lemma("Visited"), "visit");
  EXPECT_EQ(Lemma("WROTE"), "write");
}

TEST(LemmatizerTest, LemmaIsFixpoint) {
  for (const VerbForms& v : Verbs()) {
    EXPECT_EQ(Lemma(v.lemma), v.lemma);
    EXPECT_EQ(Lemma(v.past), v.lemma);
    EXPECT_EQ(Lemma(v.third), v.lemma);
    EXPECT_EQ(Lemma(v.gerund), v.lemma);
  }
}

TEST(LemmatizerTest, RelationalPhraseKeepsParticle) {
  EXPECT_EQ(Lemma("worked at"), "work at");
  EXPECT_EQ(Lemma("lives in"), "live in");
  EXPECT_EQ(Lemma("visited"), "visit");
}

TEST(LemmatizerTest, KnownVerbForms) {
  EXPECT_TRUE(Tokenize("painted").tokens[0].is(kVerbForm));
  EXPECT_TRUE(Tokenize("Paints").tokens[0].is(kVerbForm));
  EXPECT_FALSE(Tokenize("Rembrandt").tokens[0].is(kVerbForm));
  EXPECT_FALSE(Tokenize("the").tokens[0].is(kVerbForm));
}

// ---- Word classes -----------------------------------------------------------

// The pool predicates the word-class bits replace, as the extractor used to
// evaluate them: fold the word, scan the list.
bool InPool(const std::vector<std::string_view>& pool, std::string_view word) {
  const std::string lower = AsciiToLower(word);
  return std::find(pool.begin(), pool.end(), lower) != pool.end();
}

// The first verb row with `word` as any inflection, by a scan of the table.
const VerbForms* ReferenceVerb(std::string_view word) {
  const std::string lower = AsciiToLower(word);
  for (const VerbForms& v : Verbs()) {
    if (v.lemma == lower || v.past == lower || v.third == lower ||
        v.gerund == lower) {
      return &v;
    }
  }
  return nullptr;
}

// `word` in lowercase, uppercase and capitalized form.
std::vector<std::string> Casings(std::string_view word) {
  std::string upper(word);
  for (char& c : upper) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  }
  std::string capitalized = AsciiToLower(word);
  if (!capitalized.empty()) capitalized[0] = upper[0];
  return {AsciiToLower(word), upper, capitalized};
}

TEST(WordClassTest, TokenBitsEqualThePoolPredicates) {
  std::vector<std::string_view> words = {"Rembrandt", "quickly", "11",
                                         "co-author", ".", ",", "(", "x"};
  for (const auto* pool :
       {&Stopwords(), &Determiners(), &Pronouns(), &VerbParticles(),
        &Prepositions(), &CoordinatingConjunctions(),
        &ConnectorPunctuation()}) {
    words.insert(words.end(), pool->begin(), pool->end());
  }
  for (const VerbForms& v : Verbs()) {
    words.insert(words.end(), {v.lemma, v.past, v.third, v.gerund});
  }
  int checked = 0;
  for (std::string_view word : words) {
    for (const std::string& form : Casings(word)) {
      SCOPED_TRACE(form);
      TokenizedDocument doc = Tokenize(form);
      ASSERT_EQ(doc.tokens.size(), 1u);
      const Token& tok = doc.tokens[0];
      EXPECT_EQ(tok.t, form);
      const bool punct = tok.is_punct();
      EXPECT_EQ(tok.is(kStopword), InPool(Stopwords(), form));
      EXPECT_EQ(tok.is(kDeterminer), InPool(Determiners(), form));
      EXPECT_EQ(tok.is(kPronoun), InPool(Pronouns(), form));
      EXPECT_EQ(tok.is(kParticle), InPool(VerbParticles(), form));
      EXPECT_EQ(tok.is(kPreposition), InPool(Prepositions(), form));
      EXPECT_EQ(tok.is(kConjunction),
                InPool(CoordinatingConjunctions(), form));
      EXPECT_EQ(tok.is(kConnectorPunct),
                InPool(ConnectorPunctuation(), form));
      EXPECT_EQ(tok.verb, ReferenceVerb(form));
      EXPECT_EQ(tok.is(kVerbForm), ReferenceVerb(form) != nullptr);
      EXPECT_EQ(tok.is(kCapitalized), !punct && IsCapitalized(form));
      EXPECT_EQ(tok.is(kNumber), !punct && IsNumberWord(form));
      EXPECT_EQ(doc.Folded(0, 1), AsciiToLower(form));
      ++checked;
    }
  }
  EXPECT_GT(checked, 3 * 4 * static_cast<int>(Verbs().size()));
}

TEST(WordClassTest, RelationLemmaIsTheRowLemmaPlusTheFoldedParticle) {
  for (const VerbForms& v : Verbs()) {
    for (std::string_view form : {v.lemma, v.past, v.third, v.gerund}) {
      const VerbForms* row = ReferenceVerb(form);
      ASSERT_NE(row, nullptr) << form;
      const std::string lemma(row->lemma);
      for (const std::string& verb : Casings(form)) {
        EXPECT_EQ(Lemma(verb), lemma) << verb;
        for (std::string_view particle : VerbParticles()) {
          for (const std::string& p : Casings(particle)) {
            EXPECT_EQ(Lemma(verb + " " + p), lemma + " " + AsciiToLower(p))
                << verb << " " << p;
          }
        }
      }
    }
  }
}

// ---- Connector features (Sec. 5.1) ----------------------------------------

// Classifies `gap`, tokenized, as the gap between two adjacent mentions.
std::optional<Connector> ClassifyGap(std::string_view gap) {
  TokenizedDocument doc = Tokenize(gap);
  return ClassifyConnector(doc, 0, static_cast<int>(doc.tokens.size()));
}

TEST(FeaturesTest, ConjunctionConnector) {
  auto c = ClassifyGap("and");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->kind, ConnectorKind::kConjunction);
  EXPECT_EQ(c->joining_text, "and");
}

TEST(FeaturesTest, PrepositionConnectors) {
  auto c1 = ClassifyGap("of");
  ASSERT_TRUE(c1.has_value());
  EXPECT_EQ(c1->kind, ConnectorKind::kPreposition);

  auto c2 = ClassifyGap("on the");
  ASSERT_TRUE(c2.has_value());
  EXPECT_EQ(c2->kind, ConnectorKind::kPreposition);
  EXPECT_EQ(c2->joining_text, "on the");

  auto c3 = ClassifyGap("Of The");
  ASSERT_TRUE(c3.has_value());
  EXPECT_EQ(c3->joining_text, "of the");
}

TEST(FeaturesTest, NumberConnector) {
  auto c = ClassifyGap("11");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->kind, ConnectorKind::kNumber);
  EXPECT_EQ(c->joining_text, "11");
}

TEST(FeaturesTest, PunctuationConnector) {
  auto c = ClassifyGap(":");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->kind, ConnectorKind::kPunctuation);
}

TEST(FeaturesTest, NonConnectors) {
  EXPECT_FALSE(ClassifyGap("").has_value());
  EXPECT_FALSE(ClassifyGap("painted").has_value());
  EXPECT_FALSE(ClassifyGap("quickly").has_value());
  EXPECT_FALSE(ClassifyGap("of quickly").has_value());
  EXPECT_FALSE(ClassifyGap("the of").has_value());
  EXPECT_FALSE(ClassifyGap("of the new").has_value());
  EXPECT_FALSE(ClassifyGap(",").has_value());
}

// ---- Gazetteer --------------------------------------------------------------

TEST(GazetteerTest, TypeLookupCaseInsensitive) {
  Gazetteer g;
  g.AddSurface("Brooklyn", kb::EntityType::kLocation);
  EXPECT_EQ(g.LookupType("brooklyn"), kb::EntityType::kLocation);
  EXPECT_EQ(g.LookupType("BROOKLYN"), kb::EntityType::kLocation);
  EXPECT_FALSE(g.LookupType("Queens").has_value());
  EXPECT_TRUE(g.Contains("Brooklyn"));
  EXPECT_FALSE(g.Contains("Queens"));
}

TEST(GazetteerTest, LowercaseMentionFlag) {
  Gazetteer g;
  g.AddSurface("machine learning", kb::EntityType::kTopic,
               /*lowercase_mention=*/true);
  g.AddSurface("Brooklyn", kb::EntityType::kLocation);
  EXPECT_TRUE(g.IsLowercaseMention("machine learning"));
  EXPECT_FALSE(g.IsLowercaseMention("Brooklyn"));
  EXPECT_EQ(g.max_lowercase_tokens(), 2);
}

TEST(GazetteerTest, FirstTypeWinsButLowercaseFlagAccumulates) {
  Gazetteer g;
  g.AddSurface("jordan", kb::EntityType::kPerson);
  g.AddSurface("jordan", kb::EntityType::kLocation, true);
  EXPECT_EQ(g.LookupType("jordan"), kb::EntityType::kPerson);
  EXPECT_TRUE(g.IsLowercaseMention("jordan"));
}

// The reference model of AddSurface's rule, in two hash containers: keys
// fold, empty surfaces are skipped, the first type wins, lowercase flags
// OR, and every lowercase add records its key's first word (the key up to
// its first space) and its token count.
struct GazetteerModel {
  std::unordered_map<std::string, Gazetteer::Entry> entries;
  std::unordered_set<std::string> first_words;
  int max_lowercase_tokens = 0;

  void Add(std::string_view surface, kb::EntityType type, bool lowercase) {
    const std::string key = AsciiToLower(surface);
    if (key.empty()) return;
    if (lowercase) {
      first_words.insert(key.substr(0, key.find(' ')));
      max_lowercase_tokens = std::max(
          max_lowercase_tokens,
          1 + static_cast<int>(std::count(key.begin(), key.end(), ' ')));
    }
    auto [it, inserted] = entries.emplace(key, Gazetteer::Entry{type, lowercase});
    if (!inserted) it->second.lowercase_mention |= lowercase;
  }
};

void ExpectMatchesModel(const Gazetteer& g, const GazetteerModel& model,
                        const std::vector<std::string>& probes) {
  ASSERT_EQ(g.size(), model.entries.size());
  ASSERT_EQ(g.max_lowercase_tokens(), model.max_lowercase_tokens);
  for (const std::string& probe : probes) {
    const Gazetteer::Entry* entry = g.FindFolded(probe);
    auto it = model.entries.find(probe);
    if (it == model.entries.end()) {
      EXPECT_EQ(entry, nullptr) << "'" << probe << "'";
    } else {
      ASSERT_NE(entry, nullptr) << "'" << probe << "'";
      EXPECT_EQ(entry->type, it->second.type) << "'" << probe << "'";
      EXPECT_EQ(entry->lowercase_mention, it->second.lowercase_mention)
          << "'" << probe << "'";
    }
    EXPECT_EQ(g.StartsLowercaseMention(probe),
              model.first_words.count(probe) == 1)
        << "'" << probe << "'";
  }
}

// The flat table against the model: random surfaces over a small word pool
// (so surfaces repeat, with other types and flags, and multi-word surfaces
// start with words that are no surface), random case, empty surfaces and
// leading spaces (an empty first word), and enough distinct keys to grow
// the table many times, with and without a Reserve.
TEST(GazetteerTest, FlatTableMatchesReferenceModel) {
  Rng rng(2025);
  std::vector<std::string> words;
  for (int w = 0; w < 400; ++w) {
    std::string word;
    const int len = static_cast<int>(rng.NextInt(1, 11));
    for (int c = 0; c < len; ++c) {
      word.push_back(static_cast<char>('a' + rng.NextUint64(26)));
    }
    if (rng.NextBool(0.05)) word.push_back(static_cast<char>(0xC3));
    words.push_back(std::move(word));
  }
  Gazetteer grown;
  Gazetteer reserved;
  reserved.Reserve(/*surfaces=*/64, /*key_bytes=*/256);
  GazetteerModel model;
  std::vector<std::string> probes{""};
  for (int add = 1; add <= 6000; ++add) {
    std::string surface;
    if (!rng.NextBool(0.01)) {
      if (rng.NextBool(0.02)) surface.push_back(' ');
      const int num_words = static_cast<int>(rng.NextInt(1, 4));
      for (int w = 0; w < num_words; ++w) {
        if (w > 0) surface.push_back(' ');
        surface += words[rng.NextUint64(words.size())];
      }
      for (char& c : surface) {
        if (IsAsciiLowerChar(c) && rng.NextBool(0.3)) {
          c = static_cast<char>(c - ('a' - 'A'));
        }
      }
    }
    const auto type =
        static_cast<kb::EntityType>(rng.NextUint64(kb::kNumEntityTypes));
    const bool lowercase = rng.NextBool(0.5);
    grown.AddSurface(surface, type, lowercase);
    reserved.AddSurface(surface, type, lowercase);
    model.Add(surface, type, lowercase);

    const std::string key = AsciiToLower(surface);
    probes.push_back(key);
    probes.push_back(key.substr(0, key.find(' ')));
    for (size_t len = 1; len < key.size(); ++len) {
      probes.push_back(key.substr(0, len));
    }
    std::string random_key;
    const int random_len = static_cast<int>(rng.NextInt(1, 24));
    for (int c = 0; c < random_len; ++c) {
      random_key.push_back(rng.NextBool(0.15)
                               ? ' '
                               : static_cast<char>('a' + rng.NextUint64(26)));
    }
    probes.push_back(std::move(random_key));
    if (add % 1500 == 0) {
      ExpectMatchesModel(grown, model, probes);
      ExpectMatchesModel(reserved, model, probes);
    }
  }
  for (const std::string& word : words) probes.push_back(word);
  ASSERT_GT(model.entries.size(), 4000u);
  ExpectMatchesModel(grown, model, probes);
  ExpectMatchesModel(reserved, model, probes);
}

// The predicate verb pool and non-KB verb pool must be disjoint and both
// subsets of the lemmatizer table — the corpus generator relies on it.
TEST(WordlistsTest, VerbPoolsAreConsistent) {
  for (std::string_view lemma : PredicateVerbLemmas()) {
    EXPECT_NE(FindVerbByLemma(lemma), nullptr) << lemma;
  }
  for (std::string_view lemma : NonKbVerbLemmas()) {
    EXPECT_NE(FindVerbByLemma(lemma), nullptr) << lemma;
    for (std::string_view kb_lemma : PredicateVerbLemmas()) {
      EXPECT_NE(lemma, kb_lemma);
    }
  }
}

}  // namespace
}  // namespace text
}  // namespace tenet
