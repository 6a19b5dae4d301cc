#ifndef TENET_TEXT_GAZETTEER_H_
#define TENET_TEXT_GAZETTEER_H_

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "kb/types.h"

namespace tenet {
namespace text {

// Surface-form dictionary used for NER-style typing and for recognizing
// lowercase mentions (topics such as "machine learning" that carry no
// capitalization signal).  This is the TAGME-dictionary stand-in: in the
// paper the spotter's dictionary is likewise derived from the KB's
// labels/aliases.
//
// Lookups are case-insensitive.  A surface registered multiple times with
// different types keeps the first type (dominant sense).  The spotter
// probes with views into a document's folded token buffer (FindFolded,
// StartsLowercaseMention), so no probe builds a string.
class Gazetteer {
 public:
  struct Entry {
    kb::EntityType type;
    bool lowercase_mention;
  };

  Gazetteer() = default;

  /// Registers a surface form with its entity type.  `lowercase_mention`
  /// marks surfaces that should be spotted even without capitalization.
  void AddSurface(std::string_view surface, kb::EntityType type,
                  bool lowercase_mention = false);

  /// The entry of `folded`, a surface already ASCII case-folded
  /// (AsciiFoldChar), or nullptr when unknown.
  const Entry* FindFolded(std::string_view folded) const;

  /// True when the case-folded word `folded_word` is the first word of
  /// some lowercase-spottable surface: an n-gram starting with any other
  /// word cannot be a lowercase mention.
  bool StartsLowercaseMention(std::string_view folded_word) const;

  /// NER type of `surface`, or nullopt when unknown.
  std::optional<kb::EntityType> LookupType(std::string_view surface) const;

  bool Contains(std::string_view surface) const;

  /// True when `surface` may be spotted in lowercase text.
  bool IsLowercaseMention(std::string_view surface) const;

  /// Longest registered lowercase-mention phrase, in whitespace tokens;
  /// bounds the n-gram scan of the extractor.
  int max_lowercase_tokens() const { return max_lowercase_tokens_; }

  size_t size() const { return entries_.size(); }

 private:
  // Heterogeneous lookup: probe std::string keys with a string_view.
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::unordered_map<std::string, Entry, Hash, std::equal_to<>> entries_;
  std::unordered_set<std::string, Hash, std::equal_to<>>
      lowercase_first_words_;
  int max_lowercase_tokens_ = 0;
};

}  // namespace text
}  // namespace tenet

#endif  // TENET_TEXT_GAZETTEER_H_
