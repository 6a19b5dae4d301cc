#ifndef TENET_TEXT_WORDLISTS_H_
#define TENET_TEXT_WORDLISTS_H_

#include <string_view>
#include <vector>

namespace tenet {
namespace text {

// Curated static word pools.  They play two roles:
//   * the linguistic lexicon consulted by the NLP substrate (tokenizer,
//     chunker, Open-IE-lite, lemmatizer, feature detector), standing in for
//     the NLTK/spaCy resources of the paper's pipeline; and
//   * the generative vocabulary of the synthetic KB / corpus generators,
//     which share this grammar with the extractor the way the paper's tools
//     share English.
//
// All pools are immutable, ASCII, and ordered deterministically.

// Inflection row of one verb.  Multi-word relational phrases are formed by
// appending a particle/preposition to a verb form ("work" + "at").
struct VerbForms {
  std::string_view lemma;
  std::string_view past;
  std::string_view third;   // third person singular present
  std::string_view gerund;  // -ing form
};

/// All verbs known to the lemmatizer / Open-IE extractor (~70 rows, both
/// regular and irregular).
const std::vector<VerbForms>& Verbs();

/// Subset of verb lemmas the synthetic KB uses for predicate surfaces.
const std::vector<std::string_view>& PredicateVerbLemmas();

/// Verb lemmas that never alias a predicate in the synthetic KB; the corpus
/// generator uses them to render non-linkable relational phrases.
const std::vector<std::string_view>& NonKbVerbLemmas();

/// Particles/prepositions that may follow a verb in a relational phrase.
const std::vector<std::string_view>& VerbParticles();

// The four linguistic feature classes of Sec. 5.1 (connectors that join
// short-text mentions into long-text mentions).
const std::vector<std::string_view>& CoordinatingConjunctions();  // "and"
const std::vector<std::string_view>& Prepositions();  // "of", "on the", ...
/// True when `word` is an ASCII number word usable as a connector ("11").
bool IsNumberWord(std::string_view word);
/// Punctuation characters that act as mention connectors (":", "-").
const std::vector<std::string_view>& ConnectorPunctuation();

/// Determiners that may prefix a mention ("the", "a").
const std::vector<std::string_view>& Determiners();

/// Common function words ignored by the chunker.
const std::vector<std::string_view>& Stopwords();

/// Third-person pronouns resolved by the coreference canonicalizer.
const std::vector<std::string_view>& Pronouns();

// ---- Name-generation pools (synthetic KB only) ---------------------------

const std::vector<std::string_view>& PersonFirstNames();
const std::vector<std::string_view>& PersonLastNames();
const std::vector<std::string_view>& OrganizationHeads();
const std::vector<std::string_view>& OrganizationSuffixes();
const std::vector<std::string_view>& LocationNames();
const std::vector<std::string_view>& LocationSuffixes();
const std::vector<std::string_view>& WorkHeadNouns();
const std::vector<std::string_view>& TopicAdjectives();
const std::vector<std::string_view>& TopicNouns();
const std::vector<std::string_view>& ProductHeads();
const std::vector<std::string_view>& EventHeads();

/// Looks up the inflection row of `lemma`; nullptr when unknown.
const VerbForms* FindVerbByLemma(std::string_view lemma);

}  // namespace text
}  // namespace tenet

#endif  // TENET_TEXT_WORDLISTS_H_
