#include "text/gazetteer.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

#include "common/logging.h"
#include "common/probe_hash.h"
#include "common/string_util.h"

namespace tenet {
namespace text {
namespace {

// Table size holding `entries` occupied slots at load factor <= 1/2.
size_t CapacityFor(size_t entries) {
  return std::bit_ceil(std::max<size_t>(2, 2 * entries));
}

bool KeyEquals(const char* a, const char* b, size_t len) {
  return len == 0 || std::memcmp(a, b, len) == 0;
}

}  // namespace

void Gazetteer::Reserve(size_t surfaces, size_t key_bytes) {
  keys_.reserve(key_bytes);
  if (CapacityFor(surfaces) > slots_.size()) Rehash(CapacityFor(surfaces));
}

void Gazetteer::AddSurface(std::string_view surface, kb::EntityType type,
                           bool lowercase_mention) {
  if (surface.empty()) return;
  TENET_CHECK_LE(keys_.size() + surface.size(),
                 size_t{std::numeric_limits<uint32_t>::max()})
      << "gazetteer keys overflow the arena's u32 offsets";
  // Fold the key straight into the arena; a known key drops the copy.
  const uint32_t begin = static_cast<uint32_t>(keys_.size());
  const uint32_t len = static_cast<uint32_t>(surface.size());
  keys_.append(surface);
  for (size_t i = begin; i < keys_.size(); ++i) {
    keys_[i] = AsciiFoldChar(keys_[i]);
  }
  Slot& slot = FindOrInsert(begin, len);
  if (slot.key_begin != begin) keys_.resize(begin);
  if ((slot.flags & kSurface) == 0) {
    slot.flags |= kSurface;
    slot.entry = Entry{type, lowercase_mention};
    ++num_surfaces_;
  } else {
    slot.entry.lowercase_mention |= lowercase_mention;
  }
  if (!lowercase_mention) return;
  const std::string_view key(keys_.data() + slot.key_begin, len);
  max_lowercase_tokens_ = std::max(
      max_lowercase_tokens_,
      1 + static_cast<int>(std::count(key.begin(), key.end(), ' ')));
  const size_t first_len = std::min(key.find(' '), key.size());
  if (first_len == len) {
    slot.flags |= kStartsLowercase;
    return;
  }
  // The first word is a prefix of the key, so its slot shares the bytes.
  // (The insert may grow the table, so `slot` is not used past here.)
  FindOrInsert(slot.key_begin, static_cast<uint32_t>(first_len)).flags |=
      kStartsLowercase;
}

size_t Gazetteer::Probe(uint64_t hash, std::string_view key) const {
  const uint32_t tag = static_cast<uint32_t>(hash >> 32);
  const size_t mask = slots_.size() - 1;
  size_t at = hash & mask;
  for (; slots_[at].flags != 0; at = (at + 1) & mask) {
    const Slot& slot = slots_[at];
    if (slot.tag == tag && slot.key_len == key.size() &&
        KeyEquals(keys_.data() + slot.key_begin, key.data(), key.size())) {
      break;
    }
  }
  return at;
}

Gazetteer::Slot& Gazetteer::FindOrInsert(uint32_t begin, uint32_t len) {
  const std::string_view key(keys_.data() + begin, len);
  const uint64_t hash = HashProbeChunked(key.data(), len, nullptr);
  if (2 * (num_used_ + 1) > slots_.size()) Rehash(CapacityFor(num_used_ + 1));
  Slot& slot = slots_[Probe(hash, key)];
  if (slot.flags == 0) {
    ++num_used_;
    slot = Slot{static_cast<uint32_t>(hash >> 32), begin, len, Entry{}, 0};
  }
  return slot;
}

const Gazetteer::Slot* Gazetteer::Find(std::string_view folded) const {
  if (num_used_ == 0) return nullptr;
  const Slot& slot = slots_[Probe(
      HashProbeChunked(folded.data(), folded.size(), nullptr), folded)];
  return slot.flags != 0 ? &slot : nullptr;
}

void Gazetteer::Rehash(size_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  const size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.flags == 0) continue;
    size_t at = HashProbeChunked(keys_.data() + slot.key_begin,
                                 slot.key_len, nullptr) &
                mask;
    while (slots_[at].flags != 0) at = (at + 1) & mask;
    slots_[at] = slot;
  }
}

const Gazetteer::Entry* Gazetteer::FindFolded(std::string_view folded) const {
  const Slot* slot = Find(folded);
  return slot != nullptr && (slot->flags & kSurface) != 0 ? &slot->entry
                                                          : nullptr;
}

bool Gazetteer::StartsLowercaseMention(std::string_view folded_word) const {
  const Slot* slot = Find(folded_word);
  return slot != nullptr && (slot->flags & kStartsLowercase) != 0;
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
