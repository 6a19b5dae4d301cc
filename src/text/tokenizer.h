#ifndef TENET_TEXT_TOKENIZER_H_
#define TENET_TEXT_TOKENIZER_H_

#include <string_view>

#include "text/limits.h"
#include "text/token.h"

namespace tenet {
namespace text {

// Rule-based tokenizer + sentence splitter (the NLTK stand-in).
//
// Tokens are maximal runs of ASCII letters/digits/apostrophes and
// well-formed multi-byte UTF-8 sequences; the punctuation characters
// . , : ; ! ? ( ) " become single-character punctuation tokens.  A hyphen
// between word characters stays inside the token ("co-author"); a
// free-standing hyphen becomes punctuation.  Sentences end at . ! ?
//
// Character classes are locale-independent (common/string_util.h ASCII
// classifiers, never <cctype>), so the tokenizer agrees with the
// ASCII-only case fold on every byte: a high-bit byte is either part of a
// valid UTF-8 sequence — kept intact inside one token, passed through the
// fold unchanged — or invalid, and skipped here exactly like the fold
// leaves it untouched.  The guarded pipeline sanitizes invalid bytes to
// spaces before tokenizing, so they never reach either layer.
//
// The document owns a copy of its tokens (TokenizedDocument::buffer): each
// Token::t views it, and every token carries its word-class bits from one
// ClassifyWord probe of its folded bytes, so no later pass lower-cases a
// token or scans a word list.
TokenizedDocument Tokenize(std::string_view document_text);

// Limit-enforcing variant: word runs longer than `limits.max_token_bytes`
// are clipped at a UTF-8 sequence boundary (remainder of the run dropped)
// and tokenization stops after `limits.max_tokens` tokens.  Effects are
// recorded into `report` when non-null.  With default limits the output is
// identical to the unlimited overload for any document the clean
// generators produce.
TokenizedDocument Tokenize(std::string_view document_text,
                           const TextLimits& limits,
                           TextGuardReport* report);

}  // namespace text
}  // namespace tenet

#endif  // TENET_TEXT_TOKENIZER_H_
