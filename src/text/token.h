#ifndef TENET_TEXT_TOKEN_H_
#define TENET_TEXT_TOKEN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace tenet {
namespace text {

struct VerbForms;  // text/wordlists.h

// Word classes of a token.  The closed-list bits come from one probe of
// the frozen table of wordlists.h's closed word lists (ClassifyWord in
// text/lemmatizer.h) on the token's case-folded text; the shape bits come
// from the tokenizer.
enum WordClass : uint16_t {
  kStopword = 1 << 0,        // Stopwords()
  kDeterminer = 1 << 1,      // Determiners()
  kPronoun = 1 << 2,         // Pronouns()
  kParticle = 1 << 3,        // VerbParticles()
  kPreposition = 1 << 4,     // Prepositions()
  kConjunction = 1 << 5,     // CoordinatingConjunctions()
  kVerbForm = 1 << 6,        // any inflection of a Verbs() row
  kConnectorPunct = 1 << 7,  // ConnectorPunctuation()
  kCapitalized = 1 << 8,     // word starting with an ASCII capital
  kNumber = 1 << 9,          // word of ASCII digits only
  kPunct = 1 << 10,          // punctuation token (".", ":", ...)
};

// One token of a tokenized document.
struct Token {
  /// The token text, original casing: a view into the buffer of the
  /// TokenizedDocument that holds this token.
  std::string_view t;
  int sentence = 0;       // 0-based sentence index
  uint16_t classes = 0;   // WordClass bits
  /// The Verbs() row this token inflects (the first such row); set exactly
  /// when kVerbForm is.
  const VerbForms* verb = nullptr;

  /// True when the token has any of the WordClass bits in `mask`.
  bool is(uint16_t mask) const { return (classes & mask) != 0; }
  bool is_punct() const { return is(kPunct); }
};

// A tokenized document: flat token list plus sentence boundaries.
//
// The document owns one heap buffer holding its tokens joined by the rule
// the extractor joins surfaces with (a space before each non-punctuation
// token), followed by the case-folded copy of the same join.  Every
// Token::t views the first half, so the surface of any token range is one
// view (Surface) and so is its folded form (Folded).  The views survive a
// move of the document; the document cannot be copied.
struct TokenizedDocument {
  std::vector<Token> tokens;
  /// sentence_begin[s] is the index (into tokens) of sentence s's first
  /// token; sentence_begin.size() is the number of sentences.
  std::vector<int> sentence_begin;
  /// The joined tokens, then their folded copy; joined_size bytes each.
  std::unique_ptr<char[]> buffer;
  size_t joined_size = 0;

  int num_sentences() const { return static_cast<int>(sentence_begin.size()); }

  /// Token index one past the end of sentence `s`.
  int SentenceEnd(int s) const {
    return s + 1 < num_sentences() ? sentence_begin[s + 1]
                                   : static_cast<int>(tokens.size());
  }

  /// Tokens [begin, end) joined, original casing: "Storm on the Sea",
  /// "Winter Crown: Harvest Elegy".  Empty when begin >= end.
  std::string_view Surface(int begin, int end) const {
    if (begin >= end) return {};
    const char* first = tokens[begin].t.data();
    const Token& last = tokens[end - 1];
    return {first, static_cast<size_t>(last.t.data() + last.t.size() - first)};
  }

  /// Surface(begin, end), ASCII case-folded (AsciiFoldChar).
  std::string_view Folded(int begin, int end) const {
    const std::string_view surface = Surface(begin, end);
    if (surface.empty()) return {};
    return {surface.data() + joined_size, surface.size()};
  }
};

}  // namespace text
}  // namespace tenet

#endif  // TENET_TEXT_TOKEN_H_
