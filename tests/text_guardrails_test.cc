// Guardrail edge cases (DESIGN.md §13): every limit of text::TextLimits is
// exercised exactly at, below, and beyond its boundary, the UTF-8 validator
// is pinned to RFC 3629, and the degenerate documents (empty, whitespace,
// punctuation soup) go through all five baselines plus TENET without
// incident.  Clean inputs must come out of the guarded path byte-identical
// to the unguarded one.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/earl_like.h"
#include "baselines/falcon_like.h"
#include "baselines/kbpearl_like.h"
#include "baselines/mintree_like.h"
#include "baselines/qkbfly_like.h"
#include "baselines/tenet_linker.h"
#include "common/fault_injection.h"
#include "common/utf8.h"
#include "figure_one_world.h"
#include "obs/metrics.h"
#include "text/extraction.h"
#include "text/limits.h"
#include "text/tokenizer.h"

namespace tenet {
namespace text {
namespace {

int64_t RejectedCount(const char* reason) {
  return obs::MetricsRegistry::Default()
      ->GetCounter("tenet_input_rejected_total", "",
                   obs::LabelPair("reason", reason))
      ->Value();
}

int64_t TruncatedCount(const char* reason) {
  return obs::MetricsRegistry::Default()
      ->GetCounter("tenet_input_truncated_total", "",
                   obs::LabelPair("reason", reason))
      ->Value();
}

// ---- UTF-8 validator --------------------------------------------------

TEST(Utf8Test, AcceptsWellFormedSequences) {
  EXPECT_TRUE(IsValidUtf8(""));
  EXPECT_TRUE(IsValidUtf8("plain ascii"));
  EXPECT_TRUE(IsValidUtf8("caf\xC3\xA9"));              // U+00E9
  EXPECT_TRUE(IsValidUtf8("\xE2\x82\xAC"));             // U+20AC euro
  EXPECT_TRUE(IsValidUtf8("\xF0\x9F\x99\x82"));         // U+1F642
  EXPECT_TRUE(IsValidUtf8("\xEF\xBF\xBD"));             // U+FFFD itself
  EXPECT_TRUE(IsValidUtf8("\xF4\x8F\xBF\xBF"));         // U+10FFFF (max)
}

TEST(Utf8Test, RejectsMalformedSequences) {
  EXPECT_FALSE(IsValidUtf8("\x80"));          // bare continuation
  EXPECT_FALSE(IsValidUtf8("\xFF"));          // not a lead byte
  EXPECT_FALSE(IsValidUtf8("\xC3"));          // truncated 2-byte
  EXPECT_FALSE(IsValidUtf8("\xE2\x82"));      // truncated 3-byte
  EXPECT_FALSE(IsValidUtf8("\xC0\x80"));      // overlong NUL
  EXPECT_FALSE(IsValidUtf8("\xC1\xAF"));      // overlong
  EXPECT_FALSE(IsValidUtf8("\xE0\x80\xA0"));  // overlong 3-byte
  EXPECT_FALSE(IsValidUtf8("\xF0\x80\x80\xA0"));  // overlong 4-byte
  EXPECT_FALSE(IsValidUtf8("\xED\xA0\x80"));  // surrogate U+D800
  EXPECT_FALSE(IsValidUtf8("\xF4\x90\x80\x80"));  // > U+10FFFF
  EXPECT_FALSE(IsValidUtf8("\xF5\x80\x80\x80"));  // lead > F4
  EXPECT_FALSE(IsValidUtf8("\xC3\x28"));      // bad continuation
}

TEST(Utf8Test, ValidationReportsFirstInvalidByte) {
  Utf8Validation v = ValidateUtf8("ok\x80\x80ok\xFF");
  EXPECT_FALSE(v.valid);
  EXPECT_EQ(v.first_invalid, 2u);
  EXPECT_EQ(v.invalid_bytes, 3u);
}

TEST(Utf8Test, SanitizePreservesOffsetsAndValidBytes) {
  const std::string dirty = "a\x80" "b\xC3\xA9" "c\xFF";
  const std::string clean = SanitizeUtf8(dirty);
  ASSERT_EQ(clean.size(), dirty.size());  // offset-preserving
  EXPECT_EQ(clean, "a b\xC3\xA9" "c ");
  EXPECT_TRUE(IsValidUtf8(clean));
  // Sanitizing valid text is the identity.
  EXPECT_EQ(SanitizeUtf8(clean), clean);
}

// ---- Tokenizer limits -------------------------------------------------

TEST(TokenizerLimitsTest, CleanPathMatchesUnguardedTokenizer) {
  const std::string doc =
      "Michael Jordan visited Brooklyn. The well-known professor's "
      "lecture, held in 2021, covered machine learning!";
  TokenizedDocument plain = Tokenize(doc);
  TextGuardReport report;
  TokenizedDocument guarded = Tokenize(doc, TextLimits{}, &report);
  ASSERT_EQ(plain.tokens.size(), guarded.tokens.size());
  for (size_t i = 0; i < plain.tokens.size(); ++i) {
    EXPECT_EQ(plain.tokens[i].t, guarded.tokens[i].t);
    EXPECT_EQ(plain.tokens[i].is_punct(), guarded.tokens[i].is_punct());
  }
  EXPECT_EQ(plain.sentence_begin, guarded.sentence_begin);
  EXPECT_FALSE(report.truncated());
}

TEST(TokenizerLimitsTest, TokenExactlyAtLimitIsKept) {
  TextLimits limits;
  limits.max_token_bytes = 8;
  TextGuardReport report;
  TokenizedDocument doc =
      Tokenize("exactly8 fits.", limits, &report);
  ASSERT_EQ(doc.tokens.size(), 3u);
  EXPECT_EQ(doc.tokens[0].t, "exactly8");
  EXPECT_EQ(report.truncated_tokens, 0);
}

TEST(TokenizerLimitsTest, TokenOneByteOverLimitIsClippedNotDropped) {
  TextLimits limits;
  limits.max_token_bytes = 8;
  TextGuardReport report;
  // 9-byte word: the head is kept (degrade), the overflow is discarded.
  TokenizedDocument doc = Tokenize("overlong9 after.", limits, &report);
  ASSERT_GE(doc.tokens.size(), 2u);
  EXPECT_EQ(doc.tokens[0].t, "overlong");
  EXPECT_EQ(doc.tokens[1].t, "after");
  EXPECT_EQ(report.truncated_tokens, 1);
}

TEST(TokenizerLimitsTest, OversizedTokenClipsAtUtf8Boundary) {
  TextLimits limits;
  limits.max_token_bytes = 4;
  TextGuardReport report;
  // "aaa" + U+00E9 (2 bytes) = 5 bytes: the clip must not split the
  // 2-byte sequence, so only "aaa" survives.
  TokenizedDocument doc = Tokenize("aaa\xC3\xA9 x.", limits, &report);
  ASSERT_GE(doc.tokens.size(), 1u);
  EXPECT_EQ(doc.tokens[0].t, "aaa");
  EXPECT_TRUE(IsValidUtf8(doc.tokens[0].t));
  EXPECT_EQ(report.truncated_tokens, 1);
}

TEST(TokenizerLimitsTest, TokenCapCutsDocument) {
  TextLimits limits;
  limits.max_tokens = 4;
  TextGuardReport report;
  TokenizedDocument doc =
      Tokenize("one two three four five six.", limits, &report);
  EXPECT_EQ(doc.tokens.size(), 4u);
  EXPECT_TRUE(report.token_cap_hit);
  // Exactly at the cap: no truncation flag.
  TextGuardReport exact_report;
  TokenizedDocument exact = Tokenize("one two three four", limits,
                                     &exact_report);
  EXPECT_EQ(exact.tokens.size(), 4u);
  EXPECT_FALSE(exact_report.token_cap_hit);
}

// ---- Guarded extraction -----------------------------------------------

class GuardedExtractionTest : public ::testing::Test {
 protected:
  GuardedExtractionTest()
      : world_(testing_support::BuildFigureOneWorld()),
        extractor_(&world_.gazetteer) {}

  testing_support::FigureOneWorld world_;
  Extractor extractor_;
};

TEST_F(GuardedExtractionTest, CleanDocumentByteIdenticalToUnguardedPath) {
  const std::string doc =
      "Michael Jordan studies machine learning. He lives in Brooklyn.";
  ExtractionResult plain = extractor_.ExtractFromText(doc);
  TextGuardReport report;
  Result<ExtractionResult> guarded =
      extractor_.ExtractFromText(doc, TextLimits{}, &report);
  ASSERT_TRUE(guarded.ok());
  EXPECT_FALSE(report.truncated());
  ASSERT_EQ(plain.mentions.size(), guarded->mentions.size());
  for (size_t i = 0; i < plain.mentions.size(); ++i) {
    EXPECT_EQ(plain.mentions[i].surface, guarded->mentions[i].surface);
    EXPECT_EQ(plain.mentions[i].token_begin, guarded->mentions[i].token_begin);
    EXPECT_EQ(plain.mentions[i].token_end, guarded->mentions[i].token_end);
  }
  ASSERT_EQ(plain.relations.size(), guarded->relations.size());
  for (size_t i = 0; i < plain.relations.size(); ++i) {
    EXPECT_EQ(plain.relations[i].lemma, guarded->relations[i].lemma);
  }
  ASSERT_EQ(plain.link_after.size(), guarded->link_after.size());
  for (size_t i = 0; i < plain.link_after.size(); ++i) {
    ASSERT_EQ(plain.link_after[i].has_value(),
              guarded->link_after[i].has_value());
    if (plain.link_after[i].has_value()) {
      EXPECT_EQ(plain.link_after[i]->kind, guarded->link_after[i]->kind);
      EXPECT_EQ(plain.link_after[i]->joining_text,
                guarded->link_after[i]->joining_text);
    }
  }
}

TEST_F(GuardedExtractionTest, DocumentExactlyAtByteLimitIsAccepted) {
  TextLimits limits;
  limits.max_document_bytes = 64;
  std::string doc = "Michael Jordan lives in Brooklyn";
  doc.resize(64, 'x');
  const int64_t before = RejectedCount("document_bytes");
  Result<ExtractionResult> result =
      extractor_.ExtractFromText(doc, limits, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(RejectedCount("document_bytes"), before);
}

TEST_F(GuardedExtractionTest, DocumentOneByteOverLimitIsRejected) {
  TextLimits limits;
  limits.max_document_bytes = 64;
  std::string doc(65, 'x');
  const int64_t before = RejectedCount("document_bytes");
  Result<ExtractionResult> result =
      extractor_.ExtractFromText(doc, limits, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(RejectedCount("document_bytes"), before + 1);
}

TEST_F(GuardedExtractionTest, InvalidUtf8IsSanitizedAndCounted) {
  TextLimits limits;
  const int64_t before = TruncatedCount("invalid_utf8");
  TextGuardReport report;
  Result<ExtractionResult> result = extractor_.ExtractFromText(
      "Michael\x80\xFF Jordan lives in Brooklyn.", limits, &report);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(report.invalid_utf8_bytes, 2u);
  EXPECT_EQ(TruncatedCount("invalid_utf8"), before + 2);
  // The sanitizer split "Michael<junk><junk> Jordan": "Jordan" survives as
  // a mention-bearing token.
  bool found_jordan = false;
  for (const ShortMention& m : result->mentions) {
    if (m.surface.find("Jordan") != std::string::npos) found_jordan = true;
  }
  EXPECT_TRUE(found_jordan);
}

TEST_F(GuardedExtractionTest, InvalidUtf8RejectsWhenSanitizerDisabled) {
  TextLimits limits;
  limits.sanitize_invalid_utf8 = false;
  const int64_t before = RejectedCount("invalid_utf8");
  Result<ExtractionResult> result =
      extractor_.ExtractFromText("bad \xC0\x80 byte", limits, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(RejectedCount("invalid_utf8"), before + 1);
}

TEST_F(GuardedExtractionTest, MentionStormTruncatesAndAnnotates) {
  TextLimits limits;
  limits.max_mentions = 3;
  std::string doc;
  for (int i = 0; i < 8; ++i) doc += "Michael Jordan visited Brooklyn. ";
  const int64_t before = TruncatedCount("mentions");
  TextGuardReport report;
  Result<ExtractionResult> result =
      extractor_.ExtractFromText(doc, limits, &report);
  ASSERT_TRUE(result.ok());  // degrade, not drop
  EXPECT_EQ(static_cast<int>(result->mentions.size()), 3);
  EXPECT_GT(report.dropped_mentions, 0);
  EXPECT_EQ(TruncatedCount("mentions"), before + report.dropped_mentions);
  // The trailing feature link must not dangle past the kept prefix.
  ASSERT_EQ(result->link_after.size(), result->mentions.size());
  EXPECT_FALSE(result->link_after.back().has_value());
}

TEST_F(GuardedExtractionTest, InjectedTextFaultsRejectWithAccounting) {
  FaultInjector faults(11);
  faults.Arm("text/tokenize", 1.0);
  const int64_t before = RejectedCount("tokenize_fault");
  Result<ExtractionResult> result =
      extractor_.ExtractFromText("Brooklyn.", TextLimits{}, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(RejectedCount("tokenize_fault"), before + 1);
  faults.Disarm("text/tokenize");
  faults.Arm("text/extract", 1.0);
  const int64_t extract_before = RejectedCount("extract_fault");
  result = extractor_.ExtractFromText("Brooklyn.", TextLimits{}, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(RejectedCount("extract_fault"), extract_before + 1);
}

// ---- Candidate cap: degrade, not drop ---------------------------------

TEST_F(GuardedExtractionTest, CandidateOverflowDegradesNotDrops) {
  // "Michael Jordan" has two KB candidates; an effective cap of 1 must
  // still link the mention (to the popular player) and count the overflow.
  core::TenetOptions options;
  options.graph.max_candidates_per_mention = 4;
  options.limits.max_candidates_per_mention = 1;
  core::TenetPipeline pipeline(&world_.kb, &world_.embeddings,
                               &world_.gazetteer, options);
  const int64_t before = TruncatedCount("candidates");
  Result<core::LinkingResult> result =
      pipeline.LinkDocument("Michael Jordan visited Brooklyn.");
  ASSERT_TRUE(result.ok());
  bool linked_jordan = false;
  for (const core::LinkedConcept& link : result->links) {
    if (link.surface == "Michael Jordan") linked_jordan = true;
  }
  EXPECT_TRUE(linked_jordan);  // degraded to top-1, not dropped
  EXPECT_GT(TruncatedCount("candidates"), before);
}

TEST_F(GuardedExtractionTest, DefaultLimitsNeverClampTheCleanGraphCap) {
  // The defaults must leave the effective top-k exactly the graph option:
  // the clean path's candidate sets (and so its scores) are untouched.
  core::TenetOptions options;
  EXPECT_LT(options.graph.max_candidates_per_mention,
            options.limits.max_candidates_per_mention);
}

// ---- Degenerate documents through every system ------------------------

TEST(DegenerateDocumentsTest, AllSystemsHandleEmptyAndWhitespace) {
  static testing_support::FigureOneWorld world =
      testing_support::BuildFigureOneWorld();
  baselines::BaselineSubstrate substrate{&world.kb, &world.embeddings,
                                         &world.gazetteer, {}};
  std::vector<std::unique_ptr<baselines::Linker>> linkers;
  linkers.push_back(std::make_unique<baselines::FalconLike>(substrate));
  linkers.push_back(std::make_unique<baselines::QkbflyLike>(substrate));
  linkers.push_back(std::make_unique<baselines::KbPearlLike>(substrate));
  linkers.push_back(std::make_unique<baselines::EarlLike>(substrate));
  linkers.push_back(std::make_unique<baselines::MintreeLike>(substrate));
  linkers.push_back(std::make_unique<baselines::TenetLinker>(substrate));
  for (const auto& linker : linkers) {
    for (const char* doc :
         {"", " ", "   \t\n\r  ", ".", "...", "\n\n\n", "\t.\t.\t."}) {
      Result<core::LinkingResult> result = linker->LinkDocument(doc);
      ASSERT_TRUE(result.ok())
          << linker->name() << " failed on " << ::testing::PrintToString(doc);
      EXPECT_TRUE(result->links.empty());
    }
  }
}

}  // namespace
}  // namespace text
}  // namespace tenet
