#include "text/gazetteer.h"

#include <algorithm>

#include "common/string_util.h"

namespace tenet {
namespace text {

void Gazetteer::AddSurface(std::string_view surface, kb::EntityType type,
                           bool lowercase_mention) {
  std::string key = AsciiToLower(surface);
  if (key.empty()) return;
  if (lowercase_mention) {
    const std::string_view first_word =
        std::string_view(key).substr(0, key.find(' '));
    if (lowercase_first_words_.find(first_word) ==
        lowercase_first_words_.end()) {
      lowercase_first_words_.emplace(first_word);
    }
    const int tokens =
        1 + static_cast<int>(std::count(key.begin(), key.end(), ' '));
    max_lowercase_tokens_ = std::max(max_lowercase_tokens_, tokens);
  }
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    entries_.emplace(std::move(key), Entry{type, lowercase_mention});
  } else {
    it->second.lowercase_mention |= lowercase_mention;
  }
}

const Gazetteer::Entry* Gazetteer::FindFolded(std::string_view folded) const {
  auto it = entries_.find(folded);
  return it == entries_.end() ? nullptr : &it->second;
}

bool Gazetteer::StartsLowercaseMention(std::string_view folded_word) const {
  return lowercase_first_words_.find(folded_word) !=
         lowercase_first_words_.end();
}

std::optional<kb::EntityType> Gazetteer::LookupType(
    std::string_view surface) const {
  const Entry* entry = FindFolded(AsciiToLower(surface));
  if (entry == nullptr) return std::nullopt;
  return entry->type;
}

bool Gazetteer::Contains(std::string_view surface) const {
  return FindFolded(AsciiToLower(surface)) != nullptr;
}

bool Gazetteer::IsLowercaseMention(std::string_view surface) const {
  const Entry* entry = FindFolded(AsciiToLower(surface));
  return entry != nullptr && entry->lowercase_mention;
}

}  // namespace text
}  // namespace tenet
