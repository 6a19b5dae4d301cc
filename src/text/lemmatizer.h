#ifndef TENET_TEXT_LEMMATIZER_H_
#define TENET_TEXT_LEMMATIZER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "text/token.h"

namespace tenet {
namespace text {

// The closed-class lexicon and the relation lemmatizer (the NLTK
// WordNet-lemmatizer stand-in used on relational phrases, Sec. 6.1).

// The closed-list word classes of one word.
struct WordClasses {
  uint16_t classes = 0;              // WordClass bits, closed lists only
  const VerbForms* verb = nullptr;   // first Verbs() row the word inflects
};

/// Classes of `folded`, a case-folded word, in the closed lists of
/// wordlists.h (stopwords, determiners, pronouns, verb particles,
/// prepositions, conjunctions, connector punctuation, every inflection of
/// every verb row).  One probe of a frozen hash table built on first use;
/// {0, nullptr} for any other word.  The tokenizer calls this once per
/// token.
WordClasses ClassifyWord(std::string_view folded);

/// Lemma of the relational phrase doc.tokens[begin, end): the lemma of the
/// first token's verb row, then the remaining tokens case-folded
/// ("worked at" -> "work at", "WROTE" -> "write").  The first token must
/// be a verb form (kVerbForm).
std::string LemmatizeRelation(const TokenizedDocument& doc, int begin,
                              int end);

}  // namespace text
}  // namespace tenet

#endif  // TENET_TEXT_LEMMATIZER_H_
