#include "text/lemmatizer.h"

#include <algorithm>
#include <array>
#include <initializer_list>

#include "common/logging.h"
#include "text/wordlists.h"

namespace tenet {
namespace text {
namespace {

// Open-addressing table of every closed-list word.  The keys view the
// static word lists, which are lower-case ASCII, so the table owns no
// strings and is probed with a token's folded bytes as they are.
class WordClassTable {
 public:
  WordClassTable() {
    auto add_pool = [this](const std::vector<std::string_view>& pool,
                           uint16_t classes) {
      for (std::string_view word : pool) Add(word, classes, nullptr);
    };
    add_pool(Stopwords(), kStopword);
    add_pool(Determiners(), kDeterminer);
    add_pool(Pronouns(), kPronoun);
    add_pool(VerbParticles(), kParticle);
    add_pool(Prepositions(), kPreposition);
    add_pool(CoordinatingConjunctions(), kConjunction);
    add_pool(ConnectorPunctuation(), kConnectorPunct);
    // Rows in table order, so a form shared by two rows keeps the first.
    for (const VerbForms& v : Verbs()) {
      for (std::string_view form : {v.lemma, v.past, v.third, v.gerund}) {
        Add(form, kVerbForm, &v);
      }
    }
  }

  WordClasses Find(std::string_view folded) const {
    if (folded.empty() || folded.size() > max_word_size_) return {};
    for (size_t slot = Hash(folded);; slot = (slot + 1) & (kSlots - 1)) {
      const Entry& entry = slots_[slot];
      if (entry.word.empty()) return {};
      if (entry.word == folded) return entry.classes;
    }
  }

 private:
  // A power of two above twice the ~370 distinct words, so a probe of a
  // word outside the lists ends after one or two slots.
  static constexpr size_t kSlots = 1024;

  struct Entry {
    std::string_view word;
    WordClasses classes;
  };

  // FNV-1a, reduced to a slot.
  static size_t Hash(std::string_view word) {
    uint32_t h = 2166136261u;
    for (char c : word) {
      h ^= static_cast<unsigned char>(c);
      h *= 16777619u;
    }
    return h & (kSlots - 1);
  }

  void Add(std::string_view word, uint16_t classes, const VerbForms* verb) {
    max_word_size_ = std::max(max_word_size_, word.size());
    for (size_t slot = Hash(word);; slot = (slot + 1) & (kSlots - 1)) {
      Entry& entry = slots_[slot];
      if (entry.word.empty()) entry.word = word;
      if (entry.word != word) continue;
      entry.classes.classes |= classes;
      if (entry.classes.verb == nullptr) entry.classes.verb = verb;
      return;
    }
  }

  std::array<Entry, kSlots> slots_{};
  size_t max_word_size_ = 0;
};

}  // namespace

WordClasses ClassifyWord(std::string_view folded) {
  static const WordClassTable* table = new WordClassTable();
  return table->Find(folded);
}

std::string LemmatizeRelation(const TokenizedDocument& doc, int begin,
                              int end) {
  const Token& verb = doc.tokens[begin];
  TENET_CHECK(verb.verb != nullptr);
  std::string lemma(verb.verb->lemma);
  lemma += doc.Folded(begin, end).substr(verb.t.size());
  return lemma;
}

}  // namespace text
}  // namespace tenet
