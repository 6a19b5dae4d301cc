#include "text/extraction.h"

#include <algorithm>
#include <string>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/utf8.h"
#include "text/lemmatizer.h"
#include "text/tokenizer.h"

namespace tenet {
namespace text {
namespace {

// Sentence-initial capitalized tokens that are merely function words
// ("The", "He", "During") rather than the start of a name.
constexpr uint16_t kFunctionWord = kStopword | kDeterminer | kVerbForm;

ShortMention MakeMention(const TokenizedDocument& doc, int sentence,
                         int begin, int end, const Gazetteer::Entry* entry) {
  ShortMention mention;
  mention.surface = std::string(doc.Surface(begin, end));
  if (entry != nullptr) mention.type = entry->type;
  mention.sentence = sentence;
  mention.token_begin = begin;
  mention.token_end = end;
  return mention;
}

}  // namespace

Extractor::Extractor(const Gazetteer* gazetteer) : gazetteer_(gazetteer) {
  TENET_CHECK(gazetteer != nullptr);
}

ExtractionResult Extractor::ExtractFromText(
    std::string_view document_text) const {
  return Extract(Tokenize(document_text));
}

Result<ExtractionResult> Extractor::ExtractFromText(
    std::string_view document_text, const TextLimits& limits,
    TextGuardReport* report) const {
  TextGuardReport local;
  TextGuardReport* rep = report != nullptr ? report : &local;

  // Reject-before-work: past this size even tokenization cost can blow a
  // serving deadline, so no partial output either.
  if (document_text.size() > limits.max_document_bytes) {
    RecordInputRejected(InputRejectReason::kDocumentBytes);
    return Status::InvalidArgument(
        "document of " + std::to_string(document_text.size()) +
        " bytes exceeds max_document_bytes=" +
        std::to_string(limits.max_document_bytes));
  }

  if (TENET_FAULT_POINT("text/tokenize")) {
    RecordInputRejected(InputRejectReason::kTokenizeFault);
    return Status::Internal("injected fault at text/tokenize");
  }

  // Invalid bytes never reach the tokenizer or the ASCII case fold: they
  // are either replaced with spaces (offset-preserving, so the garbage
  // becomes token boundaries) or the document is rejected.
  std::string sanitized;
  std::string_view input = document_text;
  const Utf8Validation utf8 = ValidateUtf8(document_text);
  if (!utf8.valid) {
    if (!limits.sanitize_invalid_utf8) {
      RecordInputRejected(InputRejectReason::kInvalidUtf8);
      return Status::InvalidArgument(
          "invalid UTF-8 at byte " + std::to_string(utf8.first_invalid) +
          " (" + std::to_string(utf8.invalid_bytes) + " invalid bytes)");
    }
    sanitized = SanitizeUtf8(document_text);
    input = sanitized;
    rep->invalid_utf8_bytes = utf8.invalid_bytes;
    RecordInputTruncated(InputTruncateReason::kInvalidUtf8,
                         static_cast<int64_t>(utf8.invalid_bytes));
  }

  TokenizedDocument doc = Tokenize(input, limits, rep);
  RecordInputTruncated(InputTruncateReason::kTokenBytes,
                       rep->truncated_tokens);
  if (rep->token_cap_hit) {
    RecordInputTruncated(InputTruncateReason::kTokenCount);
  }

  if (TENET_FAULT_POINT("text/extract")) {
    RecordInputRejected(InputRejectReason::kExtractFault);
    return Status::Internal("injected fault at text/extract");
  }

  ExtractionResult result = Extract(doc);

  // Truncate-and-annotate: a mention storm must degrade the document, not
  // drop it.  The kept prefix preserves document order; the trailing
  // feature link is cleared because its right-hand mention is gone.
  if (static_cast<int>(result.mentions.size()) > limits.max_mentions) {
    rep->dropped_mentions =
        static_cast<int>(result.mentions.size()) - limits.max_mentions;
    result.mentions.resize(limits.max_mentions);
    result.link_after.resize(limits.max_mentions);
    if (!result.link_after.empty()) result.link_after.back() = std::nullopt;
    RecordInputTruncated(InputTruncateReason::kMentions,
                         rep->dropped_mentions);
  }
  if (static_cast<int>(result.relations.size()) > limits.max_relations) {
    rep->dropped_relations =
        static_cast<int>(result.relations.size()) - limits.max_relations;
    result.relations.resize(limits.max_relations);
    RecordInputTruncated(InputTruncateReason::kRelations,
                         rep->dropped_relations);
  }
  return result;
}

ExtractionResult Extractor::Extract(const TokenizedDocument& doc) const {
  ExtractionResult result;
  const int num_tokens = static_cast<int>(doc.tokens.size());
  std::vector<bool> in_mention(num_tokens, false);

  // ---- Pass 1: capitalized-run mentions ---------------------------------
  for (int s = 0; s < doc.num_sentences(); ++s) {
    const int sent_begin = doc.sentence_begin[s];
    const int sent_end = doc.SentenceEnd(s);
    int i = sent_begin;
    while (i < sent_end) {
      const Token& tok = doc.tokens[i];
      bool starts_run = tok.is(kCapitalized);
      if (starts_run && i == sent_begin && tok.is(kFunctionWord)) {
        // Sentence-initial "The"/"He"/"During": only a name start when it is
        // a capitalized determiner directly followed by another capitalized
        // word ("The Storm ...").
        bool title_start = tok.is(kDeterminer) && i + 1 < sent_end &&
                           doc.tokens[i + 1].is(kCapitalized);
        if (!title_start) starts_run = false;
      }
      if (starts_run && tok.is(kPronoun)) starts_run = false;
      if (!starts_run) {
        ++i;
        continue;
      }
      int begin = i;
      int end = i + 1;
      // A run extends over strictly capitalized tokens; lowercase connectors
      // ("of the") intentionally terminate it — they are the linguistic
      // features that the canopy machinery rejoins later.  A number joins
      // the run only at its end ("Falcon 9"); a number *between* two
      // capitalized tokens stays outside as a connector ("Apollo 11
      // mission" style, Sec. 5.1).
      while (end < sent_end && doc.tokens[end].is(kCapitalized)) ++end;
      if (end < sent_end && doc.tokens[end].is(kNumber) &&
          !(end + 1 < sent_end && doc.tokens[end + 1].is(kCapitalized))) {
        ++end;
      }
      for (int t = begin; t < end; ++t) in_mention[t] = true;
      result.mentions.push_back(
          MakeMention(doc, s, begin, end,
                      gazetteer_->FindFolded(doc.Folded(begin, end))));
      i = end;
    }
  }

  // ---- Pass 2: lowercase gazetteer mentions (topics) --------------------
  // Probes the folded buffer longest n-gram first, and only from a token
  // that starts some lowercase-spottable surface.
  const int max_ngram = std::max(1, gazetteer_->max_lowercase_tokens());
  for (int s = 0; s < doc.num_sentences(); ++s) {
    const int sent_begin = doc.sentence_begin[s];
    const int sent_end = doc.SentenceEnd(s);
    int i = sent_begin;
    while (i < sent_end) {
      if (in_mention[i] || doc.tokens[i].is(kPunct | kCapitalized) ||
          !gazetteer_->StartsLowercaseMention(doc.Folded(i, i + 1))) {
        ++i;
        continue;
      }
      // Only n-grams of tokens outside mentions and punctuation qualify:
      // the prefixes of the clean run starting at i.
      const int limit = std::min(sent_end, i + max_ngram);
      int clean_end = i + 1;
      while (clean_end < limit && !in_mention[clean_end] &&
             !doc.tokens[clean_end].is_punct()) {
        ++clean_end;
      }
      int matched_end = -1;
      const Gazetteer::Entry* matched = nullptr;
      for (int end = clean_end; end > i; --end) {  // longest match wins
        const Gazetteer::Entry* entry =
            gazetteer_->FindFolded(doc.Folded(i, end));
        if (entry != nullptr && entry->lowercase_mention) {
          matched_end = end;
          matched = entry;
          break;
        }
      }
      if (matched_end < 0) {
        ++i;
        continue;
      }
      for (int t = i; t < matched_end; ++t) in_mention[t] = true;
      result.mentions.push_back(MakeMention(doc, s, i, matched_end, matched));
      i = matched_end;
    }
  }

  // Keep mentions in document order (pass 2 appended out of order).
  std::sort(result.mentions.begin(), result.mentions.end(),
            [](const ShortMention& a, const ShortMention& b) {
              return a.token_begin < b.token_begin;
            });

  // ---- Pass 3: relational phrases (Open-IE-lite) -------------------------
  // An anchor is a mention span or a resolvable pronoun.  A relation is kept
  // only when a verb (+ optional particle) lies between two anchors of the
  // same sentence, mirroring the paper's "relational phrases that connect
  // two noun phrases in a triple".  in_mention marks the mention tokens.
  bool seen_person_before = false;  // any prior person/org mention to bind a pronoun
  int mention_cursor = 0;
  for (int s = 0; s < doc.num_sentences(); ++s) {
    const int sent_begin = doc.sentence_begin[s];
    const int sent_end = doc.SentenceEnd(s);
    // Advance the cursor over mentions before this sentence; pronouns bind
    // to any earlier person/organization mention.
    while (mention_cursor < static_cast<int>(result.mentions.size()) &&
           result.mentions[mention_cursor].sentence < s) {
      const std::optional<kb::EntityType>& type =
          result.mentions[mention_cursor].type;
      if (type == kb::EntityType::kPerson ||
          type == kb::EntityType::kOrganization || !type.has_value()) {
        seen_person_before = true;
      }
      ++mention_cursor;
    }
    for (int i = sent_begin; i < sent_end; ++i) {
      const Token& tok = doc.tokens[i];
      if (in_mention[i] || !tok.is(kVerbForm) || tok.is(kCapitalized)) {
        continue;
      }

      int end = i + 1;
      if (end < sent_end && doc.tokens[end].is(kParticle) && !in_mention[end]) {
        ++end;
      }
      // Left anchor: a mention token or pronoun earlier in the sentence, or
      // a pronoun resolved from a previous sentence's subject.
      bool left_anchor = false;
      for (int t = sent_begin; t < i; ++t) {
        if (in_mention[t]) {
          left_anchor = true;
          break;
        }
        if (doc.tokens[t].is(kPronoun) && seen_person_before) {
          left_anchor = true;
          break;
        }
      }
      // Right anchor: a mention token after the phrase in the same sentence.
      bool right_anchor = false;
      for (int t = end; t < sent_end; ++t) {
        if (in_mention[t]) {
          right_anchor = true;
          break;
        }
      }
      if (!left_anchor || !right_anchor) continue;

      ExtractedRelation rel;
      rel.raw = std::string(doc.Surface(i, end));
      rel.lemma = LemmatizeRelation(doc, i, end);
      rel.sentence = s;
      rel.token_begin = i;
      rel.token_end = end;
      result.relations.push_back(std::move(rel));
      i = end - 1;
    }
  }

  // ---- Pass 4: feature links between adjacent mentions -------------------
  result.link_after.assign(result.mentions.size(), std::nullopt);
  for (size_t m = 0; m + 1 < result.mentions.size(); ++m) {
    const ShortMention& left = result.mentions[m];
    const ShortMention& right = result.mentions[m + 1];
    if (left.sentence != right.sentence) continue;
    if (left.token_end > right.token_begin) continue;  // overlap safety
    result.link_after[m] =
        ClassifyConnector(doc, left.token_end, right.token_begin);
  }
  return result;
}

}  // namespace text
}  // namespace tenet
