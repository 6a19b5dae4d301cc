#ifndef TENET_TEXT_GAZETTEER_H_
#define TENET_TEXT_GAZETTEER_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

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
//
// Layout: every folded key lives once in one arena, and one power-of-two
// open-addressing table (linear probing, load factor <= 1/2) holds a
// 16-byte slot per surface plus one per first word of a lowercase-spottable
// surface that is not itself a surface.  A first word's slot points at the
// prefix of its surface's key, so it costs no arena bytes.  Each slot
// carries the chunked probe hash's tag (common/probe_hash.h), the key span,
// the Entry and two flags (is a surface, starts a lowercase mention), so
// FindFolded and StartsLowercaseMention are one probe each.
class Gazetteer {
 public:
  struct Entry {
    kb::EntityType type;
    bool lowercase_mention;
  };

  Gazetteer() = default;

  /// Sizes the table for `surfaces` surfaces and the arena for
  /// `key_bytes` key bytes, so that many AddSurface calls neither rehash
  /// nor reallocate.  First words that are not surfaces take further
  /// slots.
  void Reserve(size_t surfaces, size_t key_bytes);

  /// Registers a surface form with its entity type.  `lowercase_mention`
  /// marks surfaces that should be spotted even without capitalization.
  void AddSurface(std::string_view surface, kb::EntityType type,
                  bool lowercase_mention = false);

  /// The entry of `folded`, a surface already ASCII case-folded
  /// (AsciiFoldChar), or nullptr when unknown.  The pointer is valid until
  /// the next AddSurface.
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

  /// Number of distinct surfaces.
  size_t size() const { return num_surfaces_; }

 private:
  // Slot flags; a slot with no flag set is empty.
  static constexpr uint8_t kSurface = 1;          // entry is live
  static constexpr uint8_t kStartsLowercase = 2;  // a lowercase first word

  struct Slot {
    uint32_t tag = 0;        // high half of the key's probe hash
    uint32_t key_begin = 0;  // offset into keys_
    uint32_t key_len = 0;
    Entry entry{};
    uint8_t flags = 0;
  };
  static_assert(sizeof(Slot) == 16);

  // Index of the slot holding `key`, whose probe hash is `hash`, or of the
  // empty slot that ends its chain.  The table must not be empty.
  size_t Probe(uint64_t hash, std::string_view key) const;
  // The slot of keys_[begin, begin + len), inserted with no flags when
  // absent (the table may grow first).  On a hit the slot keeps its own
  // key span.
  Slot& FindOrInsert(uint32_t begin, uint32_t len);
  // The slot of `folded`, or nullptr.
  const Slot* Find(std::string_view folded) const;
  // Re-inserts every occupied slot into a table of `capacity` slots.
  void Rehash(size_t capacity);

  std::string keys_;         // every distinct key, folded
  std::vector<Slot> slots_;  // power-of-two size, or empty
  size_t num_used_ = 0;      // occupied slots
  size_t num_surfaces_ = 0;
  int max_lowercase_tokens_ = 0;
};

}  // namespace text
}  // namespace tenet

#endif  // TENET_TEXT_GAZETTEER_H_
