#include "kb/alias_dict.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "common/checksum.h"
#include "common/logging.h"
#include "common/probe_hash.h"
#include "common/string_util.h"
#include "kb/byte_io.h"

namespace tenet {
namespace kb {
namespace {

// Section payload header, after the leading u64 payload checksum.
// Version 1 payloads, which also carried a hash-bucket table, and
// version 2 payloads, which also carried a per-posting kind bit array, are
// rejected.
constexpr uint32_t kDictVersion = 3;
constexpr size_t kDictHeaderBytes = 56;  // checksum + fixed fields
constexpr size_t kPostingRecordBytes = 16;  // {i32 id, i32 pad, f64 prior}

void PutVarint(std::string* out, uint32_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

// Decodes a varint from [pos, end); returns false on truncation/overflow.
bool GetVarint(const char* data, size_t end, size_t* pos, uint32_t* value) {
  uint32_t result = 0;
  for (int shift = 0; shift < 35; shift += 7) {
    if (*pos >= end) return false;
    unsigned char byte = static_cast<unsigned char>(data[(*pos)++]);
    result |= static_cast<uint32_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *value = result;
      return true;
    }
  }
  return false;
}

// Decodes key `sid` of a front-coded blob into `key`.  Unless `sid` starts
// a block, `key` holds key sid - 1 on entry and `*pos` points just past
// its entry; `*block_end` is the end of the current block.  Returns the
// defect of a malformed entry, or nullptr.
const char* DecodeNextKey(std::string_view blob,
                          std::span<const uint32_t> block_offsets,
                          uint64_t sid, size_t* pos, size_t* block_end,
                          std::string* key) {
  constexpr uint32_t kBlockSize = FrozenAliasDict::kBlockSize;
  if (sid % kBlockSize == 0) {
    *pos = block_offsets[sid / kBlockSize];
    *block_end = block_offsets[sid / kBlockSize + 1];
    uint32_t len = 0;
    if (!GetVarint(blob.data(), *block_end, pos, &len) ||
        *pos + len > *block_end) {
      return "truncated key block";
    }
    key->assign(blob.data() + *pos, len);
    *pos += len;
    return nullptr;
  }
  uint32_t lcp = 0;
  uint32_t suffix_len = 0;
  if (!GetVarint(blob.data(), *block_end, pos, &lcp) ||
      !GetVarint(blob.data(), *block_end, pos, &suffix_len) ||
      *pos + suffix_len > *block_end || lcp > key->size()) {
    return "corrupt front-coded key entry";
  }
  key->resize(lcp);
  key->append(blob.data() + *pos, suffix_len);
  *pos += suffix_len;
  return nullptr;
}

Status DictError(std::string msg) {
  return Status::InvalidArgument("alias_dict: " + std::move(msg));
}

}  // namespace

// --- Builder ----------------------------------------------------------------

void FrozenAliasDict::Builder::Add(std::string_view folded_surface,
                                   std::span<const AliasPosting> postings) {
  FrozenAliasDict& d = *dict_;
  TENET_CHECK(!folded_surface.empty()) << "empty surface";
  TENET_CHECK(key_begin_.empty() ||
              std::string_view(d.decoded_keys_).substr(key_begin_.back()) <
                  folded_surface)
      << "surfaces must be added in strictly ascending folded order";
  // The serialized format stores surface ids, posting offsets and key-blob
  // offsets as u32 (and the probe table, twice the surface count, must fit
  // a u32 mask, capping surfaces at 2^31); fail loudly rather than freeze a
  // silently corrupt dictionary.
  TENET_CHECK_LT(d.num_surfaces_, uint64_t{1} << 31)
      << "surface count overflows the dictionary format";
  const uint32_t sid = static_cast<uint32_t>(d.num_surfaces_);
  if (d.posting_offsets_.empty()) d.posting_offsets_.push_back(0);

  // Front-code the key against its predecessor, the arena's last key.
  if (sid % kBlockSize == 0) {
    d.block_offsets_.push_back(static_cast<uint32_t>(d.key_blob_.size()));
    PutVarint(&d.key_blob_, static_cast<uint32_t>(folded_surface.size()));
    d.key_blob_.append(folded_surface);
  } else {
    const std::string_view prev =
        std::string_view(d.decoded_keys_).substr(key_begin_.back());
    size_t lcp = 0;
    size_t limit = std::min(prev.size(), folded_surface.size());
    while (lcp < limit && prev[lcp] == folded_surface[lcp]) ++lcp;
    PutVarint(&d.key_blob_, static_cast<uint32_t>(lcp));
    PutVarint(&d.key_blob_,
              static_cast<uint32_t>(folded_surface.size() - lcp));
    d.key_blob_.append(folded_surface.substr(lcp));
  }
  TENET_CHECK_LE(d.key_blob_.size(),
                 size_t{std::numeric_limits<uint32_t>::max()})
      << "key blob overflows the dictionary's u32 restart offsets";
  key_begin_.push_back(static_cast<uint32_t>(d.decoded_keys_.size()));
  d.decoded_keys_.append(folded_surface);
  d.max_key_bytes_ = std::max(
      d.max_key_bytes_, static_cast<uint32_t>(folded_surface.size()));

  // Postings: grouped entities-first, within-kind order preserved.
  const uint32_t base = d.posting_offsets_.back();
  TENET_CHECK_LE(postings.size(),
                 size_t{std::numeric_limits<uint32_t>::max() - base})
      << "posting count overflows the dictionary's u32 posting offsets";
  for (const AliasPosting& p : postings) {
    if (p.concept_ref.is_entity()) d.postings_.push_back(p);
  }
  d.entity_splits_.push_back(
      static_cast<uint32_t>(d.postings_.size() - base));
  for (const AliasPosting& p : postings) {
    if (p.concept_ref.is_predicate()) d.postings_.push_back(p);
  }
  d.posting_offsets_.push_back(base + static_cast<uint32_t>(postings.size()));
  ++d.num_surfaces_;
}

std::shared_ptr<const FrozenAliasDict> FrozenAliasDict::Builder::Build() && {
  FrozenAliasDict& d = *dict_;
  if (d.posting_offsets_.empty()) d.posting_offsets_.push_back(0);
  d.block_offsets_.push_back(static_cast<uint32_t>(d.key_blob_.size()));
  d.BuildProbeTables(key_begin_);
  return std::shared_ptr<const FrozenAliasDict>(std::move(dict_));
}

// --- lookup -----------------------------------------------------------------

// Inserts every surface into a power-of-two linear-probing table (load
// factor <= 1/2) whose 64-byte slots interleave the key hash with the sid,
// the decoded-key span and the posting span.  After this, a hit touches
// one slot chain (usually one cache line) plus the key bytes — the
// front-coded blob and the per-sid offset arrays stay cold; a miss usually
// ends at the first, empty, slot.  Insertion in ascending sid order keeps
// the layout deterministic (it is derived state either way — never
// persisted).
void FrozenAliasDict::BuildProbeTables(std::span<const uint32_t> key_begin) {
  const uint64_t table_size =
      std::bit_ceil(std::max<uint64_t>(2, 2 * num_surfaces_));
  probe_mask_ = static_cast<uint32_t>(table_size - 1);
  probe_slots_.assign(table_size, ProbeSlot{});
  for (uint64_t i = 0; i < num_surfaces_; ++i) {
    const uint32_t sid = static_cast<uint32_t>(i);
    const uint32_t begin = key_begin[sid];
    const uint32_t len =
        (sid + 1 < num_surfaces_ ? key_begin[sid + 1]
                                 : static_cast<uint32_t>(
                                       decoded_keys_.size())) -
        begin;
    ProbeSlot slot;
    slot.hash = HashProbeChunked(decoded_keys_.data() + begin, len, nullptr);
    slot.sid = sid;
    slot.key_begin = begin;
    slot.key_len = len;
    slot.posting_base = posting_offsets_[sid];
    slot.posting_len = posting_offsets_[sid + 1] - slot.posting_base;
    slot.entity_count = entity_splits_[sid];
    if (len <= kInlineKeyBytes) {
      std::memcpy(slot.inline_key, decoded_keys_.data() + begin, len);
    }
    uint32_t at = static_cast<uint32_t>(slot.hash) & probe_mask_;
    while (probe_slots_[at].key_len != 0) at = (at + 1) & probe_mask_;
    probe_slots_[at] = slot;
  }
}

const FrozenAliasDict::ProbeSlot* FrozenAliasDict::FindSlot(
    std::string_view probe) const {
  if (num_surfaces_ == 0 || probe.empty() ||
      probe.size() > max_key_bytes_) {
    return nullptr;
  }
  // Fold + hash in one pass; a probe short enough for the inline-key path
  // keeps its folded bytes on the stack so the confirm is one memcmp
  // against the slot's own cache line (a matching key_len guarantees the
  // key is inline too).
  char folded[kInlineKeyBytes];
  const size_t probe_len = probe.size();
  const bool inline_probe = probe_len <= kInlineKeyBytes;
  const uint64_t hash = HashProbeChunked(
      probe.data(), probe_len, inline_probe ? folded : nullptr);
  const char* keys = decoded_keys_.data();
  const ProbeSlot* slots = probe_slots_.data();
  for (uint32_t at = static_cast<uint32_t>(hash) & probe_mask_;;
       at = (at + 1) & probe_mask_) {
    const ProbeSlot& slot = slots[at];
    if (slot.key_len == 0) return nullptr;  // empty slot ends the chain
    if (slot.hash != hash || slot.key_len != probe_len) continue;
    if (inline_probe) {
      // Word-wise confirm inside the slot's own cache line; both sides are
      // zero-padded to the word boundary.
      uint64_t diff = 0;
      for (size_t w = 0; w < (probe_len + 7) / 8 * 8; w += 8) {
        uint64_t a;
        uint64_t b;
        std::memcpy(&a, slot.inline_key + w, 8);
        std::memcpy(&b, folded + w, 8);
        diff |= a ^ b;
      }
      if (diff == 0) return &slot;
      continue;
    }
    const char* key = keys + slot.key_begin;
    size_t j = 0;
    while (j < probe_len && key[j] == AsciiFoldChar(probe[j])) ++j;
    if (j == probe_len) return &slot;
  }
}

int64_t FrozenAliasDict::Find(std::string_view surface) const {
  const ProbeSlot* slot = FindSlot(surface);
  return slot == nullptr ? int64_t{-1} : static_cast<int64_t>(slot->sid);
}

std::span<const AliasPosting> FrozenAliasDict::EntitiesAt(int64_t sid) const {
  const uint32_t base = posting_offsets_[sid];
  return {postings_.data() + base, entity_splits_[sid]};
}

std::span<const AliasPosting> FrozenAliasDict::PredicatesAt(
    int64_t sid) const {
  const uint32_t base = posting_offsets_[sid] + entity_splits_[sid];
  return {postings_.data() + base, posting_offsets_[sid + 1] -
                                       posting_offsets_[sid] -
                                       entity_splits_[sid]};
}

std::span<const AliasPosting> FrozenAliasDict::Entities(
    std::string_view surface) const {
  const ProbeSlot* slot = FindSlot(surface);
  if (slot == nullptr) return {};
  return {postings_.data() + slot->posting_base, slot->entity_count};
}

std::span<const AliasPosting> FrozenAliasDict::Predicates(
    std::string_view surface) const {
  const ProbeSlot* slot = FindSlot(surface);
  if (slot == nullptr) return {};
  return {postings_.data() + slot->posting_base + slot->entity_count,
          slot->posting_len - slot->entity_count};
}

void FrozenAliasDict::KeyAt(int64_t sid, std::string* out) const {
  out->clear();
  size_t pos = 0;
  size_t block_end = 0;
  for (int64_t e = sid / kBlockSize * kBlockSize; e <= sid; ++e) {
    DecodeNextKey(key_blob_, block_offsets_, static_cast<uint64_t>(e), &pos,
                  &block_end, out);
  }
}

void FrozenAliasDict::VisitSurfaces(
    const std::function<void(std::string_view,
                             std::span<const AliasPosting>)>& visitor) const {
  std::string key;
  size_t pos = 0;
  size_t block_end = 0;
  for (uint64_t sid = 0; sid < num_surfaces_; ++sid) {
    DecodeNextKey(key_blob_, block_offsets_, sid, &pos, &block_end, &key);
    const uint32_t base = posting_offsets_[sid];
    visitor(key, {postings_.data() + base, posting_offsets_[sid + 1] - base});
  }
}

FrozenAliasDict::Stats FrozenAliasDict::stats() const {
  Stats s;
  s.num_surfaces = num_surfaces_;
  s.num_postings = num_postings();
  s.key_blob_bytes = key_blob_.size();
  s.raw_key_bytes = decoded_keys_.size();
  return s;
}

// --- serialization ----------------------------------------------------------

std::vector<unsigned char> FrozenAliasDict::Serialize() const {
  ByteWriter out;
  out.Append<uint64_t>(0);  // payload checksum, sealed below
  out.Append<uint32_t>(kDictVersion);
  out.Append<uint32_t>(kBlockSize);
  out.Append<uint32_t>(static_cast<uint32_t>(num_surfaces_));
  out.Append<uint32_t>(static_cast<uint32_t>(block_offsets_.size()) - 1);
  out.Append<uint32_t>(max_key_bytes_);
  out.Append<uint32_t>(0);  // pad to the u64 fields
  out.Append<uint64_t>(num_postings());
  out.Append<uint64_t>(static_cast<uint64_t>(key_blob_.size()));
  out.Append<uint64_t>(static_cast<uint64_t>(decoded_keys_.size()));
  TENET_CHECK_EQ(out.size(), kDictHeaderBytes);

  out.AppendBytes(block_offsets_.data(),
                  block_offsets_.size() * sizeof(uint32_t));
  out.PadTo8();
  out.AppendBytes(posting_offsets_.data(),
                  posting_offsets_.size() * sizeof(uint32_t));
  out.PadTo8();
  out.AppendBytes(entity_splits_.data(),
                  entity_splits_.size() * sizeof(uint32_t));
  out.PadTo8();
  out.AppendBytes(key_blob_.data(), key_blob_.size());
  out.PadTo8();
  for (const AliasPosting& p : postings_) {
    out.Append<int32_t>(p.concept_ref.id);
    out.Append<int32_t>(0);
    out.Append<double>(p.prior);
  }
  out.PatchAt<uint64_t>(0, Fnv1a64(out.data() + 8, out.size() - 8));
  return std::move(out).Take();
}

namespace {

// The fixed header after the leading checksum word.
struct DictHeader {
  uint32_t version = 0;
  uint32_t block_size = 0;
  uint32_t num_surfaces = 0;
  uint32_t num_blocks = 0;
  uint32_t max_key_bytes = 0;
  uint32_t pad = 0;
  uint64_t num_postings = 0;
  uint64_t key_blob_bytes = 0;
  uint64_t raw_key_bytes = 0;
};

// The checks ReadStats and Parse share: the header fits, the checksum
// holds, the version is this one, and the two free u64 counts are bounded
// by the section itself.  The bound comes before any size arithmetic, so
// the sum in ExpectedPayloadBytes cannot wrap mod 2^64 and make a small
// crafted payload alias a huge declared layout.
Result<DictHeader> ReadCheckedHeader(std::span<const unsigned char> payload) {
  if (payload.size() < kDictHeaderBytes) {
    return DictError("section smaller than header");
  }
  ByteReader in(payload.data());
  const uint64_t checksum = in.Read<uint64_t>();
  if (Fnv1a64(payload.data() + 8, payload.size() - 8) != checksum) {
    return DictError("payload checksum mismatch");
  }
  DictHeader h;
  h.version = in.Read<uint32_t>();
  h.block_size = in.Read<uint32_t>();
  h.num_surfaces = in.Read<uint32_t>();
  h.num_blocks = in.Read<uint32_t>();
  h.max_key_bytes = in.Read<uint32_t>();
  h.pad = in.Read<uint32_t>();
  h.num_postings = in.Read<uint64_t>();
  h.key_blob_bytes = in.Read<uint64_t>();
  h.raw_key_bytes = in.Read<uint64_t>();
  if (h.version != kDictVersion) {
    return DictError("unsupported dictionary version " +
                     std::to_string(h.version));
  }
  if (h.num_postings > payload.size() / kPostingRecordBytes ||
      h.key_blob_bytes > payload.size()) {
    return DictError("header counts exceed section size");
  }
  return h;
}

// Byte size of the serialized payload with the given header counts — the
// exact-arithmetic companion of Serialize(), used to reject any payload
// whose length disagrees with its own header.
uint64_t ExpectedPayloadBytes(const DictHeader& h) {
  uint64_t size = kDictHeaderBytes;
  size += AlignUp8((uint64_t{h.num_blocks} + 1) * sizeof(uint32_t));
  size += AlignUp8((uint64_t{h.num_surfaces} + 1) * sizeof(uint32_t));
  size += AlignUp8(uint64_t{h.num_surfaces} * sizeof(uint32_t));
  size += AlignUp8(h.key_blob_bytes);
  size += h.num_postings * kPostingRecordBytes;
  return size;
}

}  // namespace

Result<FrozenAliasDict::Stats> FrozenAliasDict::ReadStats(
    std::span<const unsigned char> payload) {
  TENET_ASSIGN_OR_RETURN(const DictHeader h, ReadCheckedHeader(payload));
  Stats s;
  s.num_surfaces = h.num_surfaces;
  s.num_postings = h.num_postings;
  s.key_blob_bytes = h.key_blob_bytes;
  s.raw_key_bytes = h.raw_key_bytes;
  return s;
}

Result<std::shared_ptr<const FrozenAliasDict>> FrozenAliasDict::Parse(
    std::span<const unsigned char> payload, const ParseLimits& limits) {
  TENET_ASSIGN_OR_RETURN(const DictHeader h, ReadCheckedHeader(payload));
  if (h.block_size != kBlockSize) {
    return DictError("unsupported block size " +
                     std::to_string(h.block_size));
  }
  if (h.pad != 0) {
    return DictError("header has a nonzero pad word");
  }
  if (h.num_surfaces > (uint32_t{1} << 31)) {
    return DictError("surface count overflows the probe table");
  }
  if (h.num_blocks != (h.num_surfaces + kBlockSize - 1) / kBlockSize) {
    return DictError("block count disagrees with surface count");
  }
  if (ExpectedPayloadBytes(h) != payload.size()) {
    return DictError("section size disagrees with header counts");
  }
  const uint32_t num_surfaces = h.num_surfaces;
  const uint64_t num_postings = h.num_postings;

  auto dict = std::make_unique<FrozenAliasDict>();
  FrozenAliasDict& d = *dict;
  d.num_surfaces_ = num_surfaces;
  d.max_key_bytes_ = h.max_key_bytes;

  const unsigned char* p = payload.data();
  size_t pos = kDictHeaderBytes;
  auto read_u32s = [&](std::vector<uint32_t>* out, size_t count) {
    out->resize(count);
    if (count != 0) {  // data() is null for empty vectors; memcpy forbids it
      std::memcpy(out->data(), p + pos, count * sizeof(uint32_t));
    }
    pos = AlignUp8(pos + count * sizeof(uint32_t));
  };
  read_u32s(&d.block_offsets_, h.num_blocks + 1);
  read_u32s(&d.posting_offsets_, static_cast<size_t>(num_surfaces) + 1);
  read_u32s(&d.entity_splits_, num_surfaces);
  d.key_blob_.assign(reinterpret_cast<const char*>(p + pos),
                     h.key_blob_bytes);
  pos = AlignUp8(pos + h.key_blob_bytes);

  // Offset tables: monotone, exact endpoints.
  if (d.block_offsets_.front() != 0 ||
      d.block_offsets_.back() != h.key_blob_bytes ||
      !std::is_sorted(d.block_offsets_.begin(), d.block_offsets_.end())) {
    return DictError("corrupt block offsets");
  }
  if (d.posting_offsets_.front() != 0 ||
      d.posting_offsets_.back() != num_postings ||
      !std::is_sorted(d.posting_offsets_.begin(),
                      d.posting_offsets_.end())) {
    return DictError("corrupt posting offsets");
  }

  // Decode every key once, into the arena the probe table indexes:
  // strictly ascending, non-empty, folded, within max_key_bytes.
  std::vector<uint32_t> key_begin(num_surfaces);
  // A key is no longer than its block's bytes, so a block decodes to at
  // most kBlockSize times its size: that bounds what a crafted header can
  // make this reserve.
  d.decoded_keys_.reserve(
      std::min(h.raw_key_bytes, uint64_t{kBlockSize} * h.key_blob_bytes));
  std::string key;
  uint32_t observed_max = 0;
  size_t cursor = 0;
  size_t block_end = 0;
  for (uint32_t sid = 0; sid < num_surfaces; ++sid) {
    if (const char* defect = DecodeNextKey(d.key_blob_, d.block_offsets_,
                                           sid, &cursor, &block_end, &key)) {
      return DictError(defect);
    }
    if ((sid % kBlockSize == kBlockSize - 1 || sid == num_surfaces - 1) &&
        cursor != block_end) {
      return DictError("key block has trailing bytes");
    }
    if (key.empty() || key.size() > h.max_key_bytes) {
      return DictError("key length out of range");
    }
    for (char c : key) {
      if (AsciiFoldChar(c) != c) {
        return DictError("key is not case-folded");
      }
    }
    if (sid > 0 &&
        !(std::string_view(d.decoded_keys_).substr(key_begin[sid - 1]) <
          key)) {
      return DictError("keys out of sorted order");
    }
    key_begin[sid] = static_cast<uint32_t>(d.decoded_keys_.size());
    d.decoded_keys_.append(key);
    observed_max = std::max(observed_max,
                            static_cast<uint32_t>(key.size()));
  }
  if (d.decoded_keys_.size() != h.raw_key_bytes) {
    return DictError("raw key byte count disagrees with header");
  }
  if (num_surfaces > 0 && observed_max != h.max_key_bytes) {
    return DictError("max key length disagrees with header");
  }
  if (num_surfaces == 0 &&
      (h.max_key_bytes != 0 || h.key_blob_bytes != 0 || num_postings != 0)) {
    return DictError("empty dictionary with nonzero payload counts");
  }

  // Per-surface posting structure.
  for (uint32_t sid = 0; sid < num_surfaces; ++sid) {
    const uint32_t len = d.posting_offsets_[sid + 1] - d.posting_offsets_[sid];
    if (d.entity_splits_[sid] > len) {
      return DictError("entity split exceeds the posting list");
    }
    if (len == 0) {
      return DictError("surface with no postings");
    }
  }

  // Posting records: ids in range, priors finite and positive, pad words
  // zero.
  d.postings_.resize(num_postings);
  ByteReader records(p + pos);
  for (uint64_t i = 0; i < num_postings; ++i) {
    const int32_t id = records.Read<int32_t>();
    const int32_t pad = records.Read<int32_t>();
    const double prior = records.Read<double>();
    if (pad != 0) {
      return DictError("posting record has a nonzero pad word");
    }
    if (!std::isfinite(prior) || prior <= 0.0) {
      return DictError("posting prior is not a positive finite number");
    }
    d.postings_[i].prior = prior;
    d.postings_[i].concept_ref.id = id;  // kind patched below
  }
  for (uint32_t sid = 0; sid < num_surfaces; ++sid) {
    const uint32_t base = d.posting_offsets_[sid];
    const uint32_t len = d.posting_offsets_[sid + 1] - base;
    const uint32_t split = d.entity_splits_[sid];
    for (uint32_t i = 0; i < len; ++i) {
      AliasPosting& posting = d.postings_[base + i];
      const bool is_entity = i < split;
      posting.concept_ref.kind = is_entity ? ConceptRef::Kind::kEntity
                                           : ConceptRef::Kind::kPredicate;
      const int64_t limit =
          is_entity ? limits.num_entities : limits.num_predicates;
      if (posting.concept_ref.id < 0 || posting.concept_ref.id >= limit) {
        return DictError("posting names a concept id out of range");
      }
    }
  }

  d.BuildProbeTables(key_begin);
  return std::shared_ptr<const FrozenAliasDict>(std::move(dict));
}

}  // namespace kb
}  // namespace tenet
