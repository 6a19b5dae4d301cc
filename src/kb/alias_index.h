#ifndef TENET_KB_ALIAS_INDEX_H_
#define TENET_KB_ALIAS_INDEX_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "kb/alias_dict.h"
#include "kb/types.h"

namespace tenet {
namespace kb {

// Case-insensitive inverted index from surface forms (labels and aliases)
// to candidate concepts — the in-process equivalent of the Solr/Lucene index
// the paper builds over the Wikidata JSON dump (Sec. 6.1, "Indexing the
// Candidate Entities and Predicates").
//
// Two-tier layout (DESIGN.md §15).  While the KB is being built, postings
// accumulate in a hash map keyed by the case-folded surface; at Finalize()
// the map is compiled into an immutable FrozenAliasDict (front-coded sorted
// keys, probe-table lookup, one posting arena) and freed.  Deltas never
// mutate the dictionary: delta-added aliases, prior adjustments, and
// tombstones live in a small mutable *overlay* map that wins over the
// dictionary per surface.  Lookups return borrowed spans into the arena
// (or the overlay) — no per-lookup copy — and both tiers are immutable
// during serving, so reads stay lock-free across RCU generation swaps.
//
// Case folding is the explicit ASCII fold (AsciiFoldChar) — never
// std::tolower, whose locale dependence would corrupt keys holding UTF-8
// bytes.
//
// Usage: Add() postings while building the KB, then Finalize() once to
// normalize popularity weights into prior probabilities per (surface, kind)
// and freeze the dictionary.  Snapshot loads skip both and AdoptFrozen()
// the persisted dictionary, whose priors come back bit-exact.
class AliasIndex {
 public:
  /// One surface's worth of overlay state.  `interleaved` is the posting
  /// list in its original (serialization) order; `grouped` holds the same
  /// records entities-first so kind-filtered lookups return one contiguous
  /// span; the first `entity_count` records of `grouped` are the entities.
  /// An empty `interleaved` is a tombstone: the surface is gone even if the
  /// frozen dictionary still holds it.
  struct OverlayEntry {
    std::vector<AliasPosting> interleaved;
    std::vector<AliasPosting> grouped;
    uint32_t entity_count = 0;
  };

  // Heterogeneous-lookup map so string_view probes don't allocate.
  struct TransparentHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  using OverlayMap =
      std::unordered_map<std::string, OverlayEntry, TransparentHash,
                         std::equal_to<>>;

  AliasIndex() = default;

  /// Registers `concept` as a candidate of `surface` with popularity
  /// `weight` (> 0).  Duplicate (surface, concept) pairs accumulate weight.
  void Add(std::string_view surface, ConceptRef concept_ref, double weight);

  /// Freezes the index: normalizes the accumulated weights to
  /// probabilities — within each surface form, entity postings sum to 1
  /// and predicate postings sum to 1 (entities and predicates are
  /// disambiguated against their own candidate sets) — sorts every list
  /// into CanonicalPostingOrder, compiles the frozen dictionary, and frees
  /// the build map.  Must be called exactly once.
  void Finalize();

  /// Adopts an already-built dictionary plus overlay — the snapshot load
  /// path and the delta compose path.  The index becomes finalized; the
  /// build map is never touched.
  void AdoptFrozen(std::shared_ptr<const FrozenAliasDict> dict,
                   OverlayMap overlay);

  /// Entity candidates of `surface`, most probable first; empty when the
  /// surface is unknown (a non-linkable phrase).  The span borrows storage
  /// owned by the index (dictionary arena or overlay) — valid until the
  /// index is destroyed; callers that outlive it must copy.
  std::span<const AliasPosting> LookupEntities(
      std::string_view surface) const;

  /// Predicate candidates of `surface`, most probable first.
  std::span<const AliasPosting> LookupPredicates(
      std::string_view surface) const;

  /// True when the (case-folded) surface has at least one posting of the
  /// requested kind.
  bool ContainsSurface(std::string_view surface,
                       ConceptRef::Kind kind) const;

  /// Number of distinct (case-folded) surface forms.
  size_t num_surfaces() const;

  /// Invokes `visitor(surface, posting)` for every posting.  After
  /// Finalize: surfaces arrive in sorted folded-byte order (the overlay
  /// merged over the dictionary), so serialization is deterministic; all
  /// postings of one surface are consecutive, in their original
  /// (serialization) order.  Before Finalize: hash-map order, unspecified
  /// across surfaces.  The surface view is only valid during
  /// the callback — copy it to keep it.
  void VisitPostings(
      const std::function<void(std::string_view, const AliasPosting&)>&
          visitor) const;

  /// Appends the full interleaved posting list of the (already folded)
  /// surface to `out` — overlay first, dictionary otherwise.  Returns
  /// false (appending nothing) when the surface is absent or tombstoned.
  /// Finalized indexes only; the delta compose path uses this.
  bool GetInterleavedPostings(std::string_view folded_surface,
                              std::vector<AliasPosting>* out) const;

  /// The frozen tier (null before Finalize).  Shared with derived
  /// generations: ApplyDeltas composes a new overlay over the same
  /// dictionary.
  const std::shared_ptr<const FrozenAliasDict>& frozen_dict() const {
    return dict_;
  }

  /// The overlay tier (empty unless deltas were applied).
  const OverlayMap& overlay() const { return overlay_; }

  /// Dictionary equivalent to the full visible index: `dict_` itself when
  /// the overlay is empty, otherwise a freshly compiled merge — what
  /// snapshot writers serialize.
  std::shared_ptr<const FrozenAliasDict> SerializableDict() const;

  bool finalized() const { return finalized_; }

 private:
  std::span<const AliasPosting> Lookup(std::string_view surface,
                                       ConceptRef::Kind kind) const;

  // Build tier, keyed by folded surface; emptied by Finalize/AdoptFrozen.
  std::unordered_map<std::string, std::vector<AliasPosting>> building_;
  // Frozen tier + overlay; set by Finalize/AdoptFrozen.
  std::shared_ptr<const FrozenAliasDict> dict_;
  OverlayMap overlay_;
  bool finalized_ = false;
};

}  // namespace kb
}  // namespace tenet

#endif  // TENET_KB_ALIAS_INDEX_H_
