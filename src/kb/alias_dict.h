#ifndef TENET_KB_ALIAS_DICT_H_
#define TENET_KB_ALIAS_DICT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "kb/types.h"

namespace tenet {
namespace kb {

// Immutable, cache-friendly dictionary from case-folded surface forms to
// posting-list spans — the alias state of a finalized AliasIndex and the
// in-memory image of the `alias_dict` TENETKB2 section.  Design in
// DESIGN.md §15.
//
// Layout:
//   - Surfaces are sorted by folded bytes and front-coded in fixed-size
//     blocks of kBlockSize keys: each block's first key is stored whole
//     (a restart point), later keys as (lcp, suffix) varint pairs against
//     their predecessor.  Raw key bytes shrink ~2-4x on realistic alias
//     tables, and a block decode touches one contiguous byte run.
//   - Lookup goes through an in-memory probe table built at Build/Parse
//     time (never serialized) over the keys that Builder::Add or Parse's
//     validation pass decoded, once each, into one arena: a power-of-two
//     linear-probing table at load factor <= 1/2 whose 64-byte slots
//     interleave a chunked SWAR key hash (8 case-folded bytes per
//     multiply) with the surface id, the posting span and the key bytes
//     themselves (keys <= kInlineKeyBytes; longer keys spill to a
//     decoded-key arena).  A hit therefore costs one random cache line in
//     the common case, a miss usually ends at the first, empty, slot, and
//     nothing allocates: the probe is folded on the fly.
//   - Postings live in one arena, grouped entities-first per surface, so
//     Entities()/Predicates() each return one contiguous borrowed span in
//     CanonicalPostingOrder (delta-touched lists: stable by-prior order).
//     The grouped order is the only one: it is what lookups read, what
//     VisitSurfaces yields and what the section stores.
//
// The dictionary is immutable after construction; concurrent readers need
// no synchronization, which is what keeps lookups lock-free across RCU
// generation swaps.
class FrozenAliasDict {
 public:
  /// Keys per front-coded block; the first key of each block is a restart
  /// point stored in full.
  static constexpr uint32_t kBlockSize = 16;

  /// Bounds checked by Parse(): every posting's concept id must be in
  /// [0, num_entities) / [0, num_predicates).
  struct ParseLimits {
    int64_t num_entities = 0;
    int64_t num_predicates = 0;
  };

  /// Summary for `kb inspect`: footprint of the encoded key blob vs the
  /// raw (uncompressed) folded key bytes.
  struct Stats {
    uint64_t num_surfaces = 0;
    uint64_t num_postings = 0;
    uint64_t key_blob_bytes = 0;  // front-coded
    uint64_t raw_key_bytes = 0;   // sum of folded key lengths
  };

  // Streaming builder.  Keys must arrive in strictly ascending folded-byte
  // order, non-empty, already case-folded; postings in their finalized
  // order, which Add groups entities-first without reordering either kind.
  // Build order is deterministic, so two builds of the same index produce
  // byte-identical Serialize() output.
  class Builder {
   public:
    void Add(std::string_view folded_surface,
             std::span<const AliasPosting> postings);
    /// Finishes construction.  The Builder is consumed.
    std::shared_ptr<const FrozenAliasDict> Build() &&;

   private:
    std::unique_ptr<FrozenAliasDict> dict_ =
        std::make_unique<FrozenAliasDict>();
    // Offset of each added key in the dictionary's decoded-key arena.
    std::vector<uint32_t> key_begin_;
  };

  FrozenAliasDict() = default;
  FrozenAliasDict(const FrozenAliasDict&) = delete;
  FrozenAliasDict& operator=(const FrozenAliasDict&) = delete;

  /// Surface id of `surface` (folded on the fly), or -1 when absent.
  int64_t Find(std::string_view surface) const;

  /// Entity postings of surface id `sid`, most probable first.  The span
  /// borrows the arena: valid for the dictionary's lifetime.
  std::span<const AliasPosting> EntitiesAt(int64_t sid) const;
  /// Predicate postings of surface id `sid`, most probable first.
  std::span<const AliasPosting> PredicatesAt(int64_t sid) const;

  /// Find + EntitiesAt; empty when the surface is unknown.
  std::span<const AliasPosting> Entities(std::string_view surface) const;
  /// Find + PredicatesAt.
  std::span<const AliasPosting> Predicates(std::string_view surface) const;

  /// Decodes the key of surface id `sid` into `out` (cleared first).
  void KeyAt(int64_t sid, std::string* out) const;

  /// Visits every surface in sorted folded order with its grouped posting
  /// list: EntitiesAt(sid) followed by PredicatesAt(sid).  The keys are
  /// decoded in one sequential pass.  The surface view is only valid
  /// during the call.
  void VisitSurfaces(
      const std::function<void(std::string_view surface,
                               std::span<const AliasPosting> postings)>&
          visitor) const;

  /// Visits every surface as `visitor(key, entities)`: the folded key read
  /// in place from the decoded-key arena and the span EntitiesAt(sid)
  /// returns.  Surfaces arrive in probe-table order, not sorted order.
  /// Nothing is decoded or allocated, so a caller that derives per-surface
  /// state (kb::DeriveGazetteer) pays one pass over the probe table.
  template <typename Visitor>
  void VisitKeyEntities(Visitor&& visitor) const {
    for (const ProbeSlot& slot : probe_slots_) {
      if (slot.key_len == 0) continue;
      visitor(std::string_view(decoded_keys_.data() + slot.key_begin,
                               slot.key_len),
              std::span<const AliasPosting>(
                  postings_.data() + slot.posting_base, slot.entity_count));
    }
  }

  uint64_t num_surfaces() const { return num_surfaces_; }
  uint64_t num_postings() const {
    return posting_offsets_.empty() ? 0 : posting_offsets_.back();
  }
  Stats stats() const;

  /// Serializes to the `alias_dict` section payload (leading 64-bit
  /// payload checksum, 56-byte header, 8-aligned arrays; format version 3).
  std::vector<unsigned char> Serialize() const;

  /// Deserializes and fully validates a section payload: checksum, exact
  /// size arithmetic, offset monotonicity, key ordering/folding, posting
  /// structure, posting id ranges and prior positivity.  Any defect yields
  /// kInvalidArgument — never a partially usable dictionary.
  static Result<std::shared_ptr<const FrozenAliasDict>> Parse(
      std::span<const unsigned char> payload, const ParseLimits& limits);

  /// Header-only peek for `kb inspect`: validates just the fixed header +
  /// checksum-covered length and returns the stats.  O(payload) for the
  /// checksum but allocates nothing.
  static Result<Stats> ReadStats(std::span<const unsigned char> payload);

 private:
  friend class Builder;

  /// Key bytes stored inside a ProbeSlot; longer keys spill to the
  /// decoded-key arena (second cache line on the lookup path).
  static constexpr uint32_t kInlineKeyBytes = 32;

  // One cache line of the in-memory open-addressing probe table: the key
  // hash interleaved with everything a confirmed hit needs — including the
  // key bytes themselves for keys up to kInlineKeyBytes — so Find() and
  // Entities()/Predicates() resolve most probes with a single random
  // access and never touch posting_offsets_ / entity_splits_ on the hot
  // path.  key_len == 0 marks an empty slot
  // (keys are non-empty by construction).  Derived state — built by
  // BuildProbeTables(), never persisted.
  struct alignas(64) ProbeSlot {
    uint64_t hash = 0;
    uint32_t sid = 0;
    uint32_t key_begin = 0;     // offset into decoded_keys_
    uint32_t key_len = 0;       // 0 = empty slot
    uint32_t posting_base = 0;  // offset into postings_
    uint32_t entity_count = 0;
    uint32_t posting_len = 0;
    char inline_key[kInlineKeyBytes] = {};  // key bytes, key_len <= inline
  };
  static_assert(sizeof(ProbeSlot) == 64);

  // Builds probe_slots_ over decoded_keys_, where key sid starts at
  // key_begin[sid].
  void BuildProbeTables(std::span<const uint32_t> key_begin);

  // Probe-table lookup; nullptr when the surface is absent.
  const ProbeSlot* FindSlot(std::string_view probe) const;

  // --- lookup table ---
  // Derived probe acceleration (see ProbeSlot): a power-of-two
  // linear-probing table at load factor <= 1/2, plus every key, in sid
  // order, in a flat arena for direct compares.  The arena's size is the
  // raw key byte count.
  std::vector<ProbeSlot> probe_slots_;
  uint32_t probe_mask_ = 0;  // probe_slots_.size() - 1
  std::string decoded_keys_;

  // --- key storage ---
  // Byte offsets of each block's encoding in key_blob_ (+ end sentinel).
  std::vector<uint32_t> block_offsets_;
  std::string key_blob_;
  uint32_t max_key_bytes_ = 0;

  // --- posting arena ---
  // postings_[posting_offsets_[sid] .. posting_offsets_[sid+1]) is the
  // grouped (entities-first) list of surface sid; the first
  // entity_splits_[sid] records are the entities.
  std::vector<AliasPosting> postings_;
  std::vector<uint32_t> posting_offsets_;
  std::vector<uint32_t> entity_splits_;

  uint64_t num_surfaces_ = 0;
};

}  // namespace kb
}  // namespace tenet

#endif  // TENET_KB_ALIAS_DICT_H_
