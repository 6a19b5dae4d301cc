#ifndef TENET_TEXT_EXTRACTION_H_
#define TENET_TEXT_EXTRACTION_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "kb/types.h"
#include "text/features.h"
#include "text/gazetteer.h"
#include "text/limits.h"
#include "text/token.h"

namespace tenet {
namespace text {

// A short-text mention (Definition 7): a minimal noun-phrase span that
// contains none of the pre-specified linguistic features.  Long-text
// variants are regenerated from these by the canopy machinery (Sec. 5.1).
struct ShortMention {
  std::string surface;
  /// NER type when the surface is known to the gazetteer; nullopt for fresh
  /// (potentially non-linkable) phrases.
  std::optional<kb::EntityType> type;
  int sentence = 0;
  int token_begin = 0;  // inclusive, document token index
  int token_end = 0;    // exclusive
};

// A relational phrase produced by the Open-IE-lite stage: a verb (plus an
// optional particle) connecting two noun phrases in one sentence.
struct ExtractedRelation {
  std::string lemma;  // lemmatized phrase, e.g. "work at"
  std::string raw;    // as it appeared, e.g. "worked at"
  int sentence = 0;
  int token_begin = 0;
  int token_end = 0;
};

// Output of the extraction pipeline over one document.
struct ExtractionResult {
  /// Short-text mentions in document order.
  std::vector<ShortMention> mentions;
  /// link_after[i] classifies the gap between mentions[i] and mentions[i+1]
  /// when the two are adjacent within a sentence and separated by exactly
  /// one linguistic feature; nullopt otherwise.  Size == mentions.size()
  /// (the last element is always nullopt).
  std::vector<std::optional<Connector>> link_after;
  /// Relational phrases in document order.
  std::vector<ExtractedRelation> relations;
};

// The linguistic pipeline of Sec. 3 Steps 1-2: tokenization, NER-style
// mention spotting (capitalized runs + gazetteer n-grams), pronoun
// coreference suppression, Open-IE-lite relational phrase extraction with
// lemmatization, and Sec. 5.1 feature-link detection.
class Extractor {
 public:
  /// `gazetteer` must outlive the Extractor; may not be null.
  explicit Extractor(const Gazetteer* gazetteer);

  ExtractionResult Extract(const TokenizedDocument& doc) const;

  /// Convenience: tokenizes then extracts.
  ExtractionResult ExtractFromText(std::string_view document_text) const;

  /// The guarded front door (DESIGN.md §13): enforces `limits` end to end —
  /// oversized documents are rejected with kInvalidArgument before any
  /// work, invalid UTF-8 is sanitized (or rejected, per
  /// `limits.sanitize_invalid_utf8`) so it never reaches the tokenizer or
  /// the lemmatizer's case fold, word runs and token counts are clipped in
  /// the tokenizer, and the mention/relation lists are truncated after
  /// extraction.  Carries the fault points "text/tokenize" and
  /// "text/extract"; a fired one rejects the document with kInternal.
  /// Every effect is counted into tenet_input_*_total and, when `report`
  /// is non-null, mirrored there for per-document accounting.
  Result<ExtractionResult> ExtractFromText(std::string_view document_text,
                                           const TextLimits& limits,
                                           TextGuardReport* report) const;

 private:
  const Gazetteer* gazetteer_;
};

}  // namespace text
}  // namespace tenet

#endif  // TENET_TEXT_EXTRACTION_H_
