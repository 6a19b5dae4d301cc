// Seeded fuzz/property harness for the hostile-input surface (DESIGN.md
// §13): byte-level mutators covering the full 0-255 range and
// structure-aware mutations from datasets::AdversarialMutator drive the
// tokenizer, the guarded extractor, and the full pipeline.  Properties:
// no crash, no hang (a deadline-carrying request returns), output sizes
// bounded by the configured limits, re-tokenization is idempotent, and
// every rejected document is accounted for in tenet_input_rejected_total.
//
// The iteration budget is TENET_FUZZ_ITERS (default keeps tier-1 fast);
// sanitizer CI jobs export a larger budget for the long sweep.
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/timer.h"
#include "common/utf8.h"
#include "core/pipeline.h"
#include "datasets/adversarial.h"
#include "figure_one_world.h"
#include "obs/metrics.h"
#include "text/extraction.h"
#include "text/limits.h"
#include "text/tokenizer.h"

namespace tenet {
namespace text {
namespace {

int FuzzIters(int default_iters) {
  const char* env = std::getenv("TENET_FUZZ_ITERS");
  if (env == nullptr) return default_iters;
  const int parsed = std::atoi(env);
  return parsed > 0 ? parsed : default_iters;
}

// Byte-level document mutator: full 0-255 alphabet with a bias toward the
// structures the pipeline actually parses (words, punctuation, UTF-8 lead
// bytes), so the fuzz corpus reaches past the "all garbage" shallows.
std::string RandomBytes(Rng& rng) {
  static constexpr const char* kFragments[] = {
      "Michael Jordan", "Brooklyn", "machine learning", "the", "visited",
      ". ", ", ", "-", "'", "\"", "(", ")", "!", "?", " ",
      "\xC3\xA9", "\xE2\x82\xAC", "\xF0\x9F\x99\x82",  // valid UTF-8
      "\x80", "\xFF", "\xC0\x80", "\xED\xA0\x80", "\xF5\x80",  // invalid
  };
  std::string out;
  const int pieces = 1 + static_cast<int>(rng.NextUint64(40));
  for (int p = 0; p < pieces; ++p) {
    switch (rng.NextUint64(4)) {
      case 0:  // raw byte, anywhere in 0-255
        out.push_back(static_cast<char>(rng.NextUint64(256)));
        break;
      case 1: {  // a run of one raw byte
        const char b = static_cast<char>(rng.NextUint64(256));
        out.append(1 + rng.NextUint64(24), b);
        break;
      }
      default:
        out += kFragments[rng.NextUint64(std::size(kFragments))];
        break;
    }
  }
  return out;
}

int64_t TotalRejected() {
  int64_t total = 0;
  for (const char* reason :
       {"document_bytes", "invalid_utf8", "tokenize_fault", "extract_fault"}) {
    total += obs::MetricsRegistry::Default()
                 ->GetCounter("tenet_input_rejected_total", "",
                              obs::LabelPair("reason", reason))
                 ->Value();
  }
  return total;
}

std::vector<std::string> TokenTexts(const TokenizedDocument& doc) {
  std::vector<std::string> out;
  out.reserve(doc.tokens.size());
  for (const Token& t : doc.tokens) out.emplace_back(t.t);
  return out;
}

std::string JoinTokens(const std::vector<std::string>& tokens) {
  std::string out;
  for (const std::string& t : tokens) {
    if (!out.empty()) out += ' ';
    out += t;
  }
  return out;
}

void CheckTokenizerProperties(const std::string& input,
                              const TextLimits& limits) {
  TextGuardReport report;
  TokenizedDocument doc = Tokenize(input, limits, &report);
  ASSERT_LE(static_cast<int>(doc.tokens.size()), limits.max_tokens);
  for (const Token& t : doc.tokens) {
    ASSERT_FALSE(t.t.empty());
    ASSERT_LE(t.t.size(), limits.max_token_bytes);
  }
  // Idempotence: the emitted token stream, re-joined on spaces, tokenizes
  // to itself.  (Only meaningful on sanitized text — invalid bytes are
  // dropped, not emitted, so the property trivially holds there too.)
  const std::vector<std::string> tokens = TokenTexts(doc);
  TokenizedDocument again = Tokenize(JoinTokens(tokens), limits, nullptr);
  ASSERT_EQ(TokenTexts(again), tokens) << "re-tokenization not idempotent";
}

TEST(TextFuzzTest, ByteLevelTokenizerAndExtractor) {
  testing_support::FigureOneWorld world =
      testing_support::BuildFigureOneWorld();
  Extractor extractor(&world.gazetteer);
  const int iters = FuzzIters(400);
  Rng rng(0xF0221);
  TextLimits generous;
  TextLimits tight;
  tight.max_token_bytes = 12;
  tight.max_tokens = 48;
  tight.max_mentions = 4;
  tight.max_relations = 4;
  const int64_t rejected_before = TotalRejected();
  int64_t rejections_seen = 0;
  for (int i = 0; i < iters; ++i) {
    const std::string input = RandomBytes(rng);
    CheckTokenizerProperties(SanitizeUtf8(input), generous);
    CheckTokenizerProperties(SanitizeUtf8(input), tight);
    for (const TextLimits* limits : {&generous, &tight}) {
      TextGuardReport report;
      Result<ExtractionResult> result =
          extractor.ExtractFromText(input, *limits, &report);
      if (!result.ok()) {
        ++rejections_seen;
        continue;
      }
      ASSERT_LE(static_cast<int>(result->mentions.size()),
                limits->max_mentions);
      ASSERT_LE(static_cast<int>(result->relations.size()),
                limits->max_relations);
      ASSERT_EQ(result->link_after.size(), result->mentions.size());
    }
  }
  // Accounting: every rejection this loop observed (and only those) landed
  // in tenet_input_rejected_total.
  EXPECT_EQ(TotalRejected() - rejected_before, rejections_seen);
}

TEST(TextFuzzTest, ByteLevelFullPipeline) {
  testing_support::FigureOneWorld world =
      testing_support::BuildFigureOneWorld();
  core::TenetOptions options;
  options.limits.max_token_bytes = 64;
  options.limits.max_tokens = 512;
  options.limits.max_mentions = 32;
  core::TenetPipeline pipeline(&world.kb, &world.embeddings,
                               &world.gazetteer, options);
  const int iters = FuzzIters(150);
  Rng rng(0xF0222);
  for (int i = 0; i < iters; ++i) {
    const std::string input = RandomBytes(rng);
    WallTimer timer;
    Result<core::LinkingResult> result = pipeline.LinkDocument(
        input, core::LinkContext::WithDeadline(Deadline::AfterMillis(250)));
    // No hang: a deadline-carrying request must return promptly even on
    // byte soup (generous bound — sanitizers are slow).
    ASSERT_LT(timer.ElapsedMillis(), 30000.0) << "pipeline hung";
    if (!result.ok()) continue;  // guardrail rejection is a valid outcome
    // Bounded output: isolated mentions come from the capped mention list.
    ASSERT_LE(result->isolated_mentions.size(), 32u);
    for (const core::LinkedConcept& link : result->links) {
      ASSERT_FALSE(link.surface.empty());
    }
  }
}

TEST(TextFuzzTest, StructureAwareAdversarialPipeline) {
  testing_support::FigureOneWorld world =
      testing_support::BuildFigureOneWorld();
  core::TenetOptions options;
  core::TenetPipeline pipeline(&world.kb, &world.embeddings,
                               &world.gazetteer, options);

  datasets::AdversarialSpec spec;
  spec.seed = 0xADF0;
  spec.typo_word_rate = 0.25;
  spec.homoglyph_word_rate = 0.2;
  spec.invalid_utf8_doc_rate = 0.6;
  spec.oversized_token_doc_rate = 0.5;
  spec.punctuation_doc_rate = 0.6;
  datasets::AdversarialMutator mutator(spec);

  datasets::Document base;
  base.id = "fuzz";
  base.text =
      "Michael Jordan studies machine learning. Michael Jordan lives in "
      "Brooklyn. The professor of machine learning visited Brooklyn.";

  const int iters = FuzzIters(150);
  for (int i = 0; i < iters; ++i) {
    datasets::Document doc = mutator.Mutate(base, static_cast<uint64_t>(i));
    WallTimer timer;
    Result<core::LinkingResult> result = pipeline.LinkDocument(
        doc.text, core::LinkContext::WithDeadline(Deadline::AfterMillis(250)));
    ASSERT_LT(timer.ElapsedMillis(), 30000.0) << "pipeline hung";
    if (!result.ok()) continue;
    for (const core::LinkedConcept& link : result->links) {
      ASSERT_FALSE(link.surface.empty());
    }
  }
}

TEST(TextFuzzTest, DeterministicAcrossRuns) {
  // The harness itself must be reproducible: the same seed and iteration
  // index always produce the same fuzz input.
  Rng a(0xF0221);
  Rng b(0xF0221);
  for (int i = 0; i < 32; ++i) {
    ASSERT_EQ(RandomBytes(a), RandomBytes(b)) << "iteration " << i;
  }
}

}  // namespace
}  // namespace text
}  // namespace tenet
