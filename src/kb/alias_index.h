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

#include "common/dependency_health.h"
#include "kb/alias_dict.h"
#include "kb/types.h"

namespace tenet {
namespace kb {

// Case-insensitive inverted index from surface forms (labels and aliases)
// to candidate concepts — the in-process equivalent of the Solr/Lucene index
// the paper builds over the Wikidata JSON dump (Sec. 6.1, "Indexing the
// Candidate Entities and Predicates").
//
// One alias dictionary per KB (DESIGN.md §15).  While the KB is being
// built, postings accumulate in a hash map keyed by the case-folded
// surface; at Finalize() the map is compiled into an immutable
// FrozenAliasDict (front-coded sorted keys, probe-table lookup, one
// posting arena) and freed.  A delta apply compiles a new dictionary for
// the new KB (ApplyDeltas) and never touches this one.  Lookups return
// borrowed spans into the arena — no per-lookup copy, no allocation — and
// the dictionary is immutable during serving, so reads stay lock-free
// across RCU generation swaps.
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

  /// Adopts an already-built dictionary — the snapshot load path and the
  /// delta compose path.  The index becomes finalized; the build map is
  /// never touched.
  void AdoptFrozen(std::shared_ptr<const FrozenAliasDict> dict);

  /// Entity candidates of `surface`, most probable first; empty when the
  /// surface is unknown (a non-linkable phrase).  The span borrows the
  /// dictionary's arena — valid until the index is destroyed; callers that
  /// outlive it must copy.  One kb/alias_lookup operation, recorded in
  /// `outcomes` when non-null (a fired fault is a failed one).
  std::span<const AliasPosting> LookupEntities(
      std::string_view surface, DependencyOutcomes* outcomes = nullptr) const;

  /// Predicate candidates of `surface`, most probable first.
  std::span<const AliasPosting> LookupPredicates(
      std::string_view surface, DependencyOutcomes* outcomes = nullptr) const;

  /// Number of distinct (case-folded) surface forms.
  size_t num_surfaces() const;

  /// Invokes `visitor(surface, posting)` for every posting.  After
  /// Finalize: surfaces arrive in sorted folded-byte order; all postings
  /// of one surface are consecutive, entities first, each kind most
  /// probable first.  Before Finalize: hash-map order, unspecified across
  /// surfaces.  The surface view is only valid during the callback — copy
  /// it to keep it.
  void VisitPostings(
      const std::function<void(std::string_view, const AliasPosting&)>&
          visitor) const;

  /// The dictionary (null before Finalize): what lookups read, what
  /// snapshot writers serialize and what ApplyDeltas composes from.
  const std::shared_ptr<const FrozenAliasDict>& frozen_dict() const {
    return dict_;
  }

  bool finalized() const { return finalized_; }

 private:
  std::span<const AliasPosting> Lookup(std::string_view surface,
                                       ConceptRef::Kind kind,
                                       DependencyOutcomes* outcomes) const;

  // Build map, keyed by folded surface; emptied by Finalize/AdoptFrozen.
  std::unordered_map<std::string, std::vector<AliasPosting>> building_;
  // Set by Finalize/AdoptFrozen.
  std::shared_ptr<const FrozenAliasDict> dict_;
  bool finalized_ = false;
};

}  // namespace kb
}  // namespace tenet

#endif  // TENET_KB_ALIAS_INDEX_H_
