#ifndef TENET_KB_KNOWLEDGE_BASE_H_
#define TENET_KB_KNOWLEDGE_BASE_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "kb/alias_index.h"
#include "kb/types.h"

namespace tenet {
namespace kb {

// Stored attributes of an entity (Definition 1: subject/object concepts).
struct EntityRecord {
  std::string label;
  EntityType type = EntityType::kOther;
  /// Topical cluster the entity belongs to; drives synthetic embeddings and
  /// fact locality.  Real KBs have no explicit domain — treat as opaque.
  int32_t domain = 0;
  /// Relative popularity (page-view-like weight); feeds alias priors.
  double popularity = 1.0;
};

// Stored attributes of a predicate (Definition 1).
struct PredicateRecord {
  std::string label;
  int32_t domain = 0;
  double popularity = 1.0;
};

// One fact triple (subject, predicate, object); the object is either an
// entity or a literal (Definition 1).
struct Triple {
  EntityId subject = kInvalidEntity;
  PredicateId predicate = kInvalidPredicate;
  EntityId object_entity = kInvalidEntity;  // valid iff object_is_entity
  std::string object_literal;               // used iff !object_is_entity
  bool object_is_entity = true;
};

// A scored candidate returned by candidate generation (Sec. 3, Steps 1-2).
struct EntityCandidate {
  EntityId entity = kInvalidEntity;
  double prior = 0.0;  // P(e | noun phrase), Equation 1
};

struct PredicateCandidate {
  PredicateId predicate = kInvalidPredicate;
  double prior = 0.0;  // P(p | relational phrase), Equation 2
};

// An in-memory triple store with a case-insensitive alias index — the
// substrate standing in for the paper's Wikidata dump + Solr index.
//
// Build phase: Add* methods, then Finalize() exactly once.  Query phase:
// the Candidate*/facts/neighbor accessors.  The class is immutable after
// Finalize() and safe for concurrent reads.
class KnowledgeBase {
 public:
  KnowledgeBase() = default;

  KnowledgeBase(const KnowledgeBase&) = delete;
  KnowledgeBase& operator=(const KnowledgeBase&) = delete;
  KnowledgeBase(KnowledgeBase&&) = default;
  KnowledgeBase& operator=(KnowledgeBase&&) = default;

  // ---- Build phase -------------------------------------------------------

  /// Adds an entity; its label is automatically registered as an alias
  /// weighted by `popularity` unless `register_label_alias` is false
  /// (used by deserialization, which restores the exact posting set).
  EntityId AddEntity(std::string_view label, EntityType type,
                     int32_t domain = 0, double popularity = 1.0,
                     bool register_label_alias = true);

  /// Adds a predicate; its label is automatically registered as an alias
  /// unless `register_label_alias` is false.
  PredicateId AddPredicate(std::string_view label, int32_t domain = 0,
                           double popularity = 1.0,
                           bool register_label_alias = true);

  /// Registers an extra surface form.  `weight` defaults to the concept's
  /// popularity when <= 0.
  void AddEntityAlias(EntityId id, std::string_view surface,
                      double weight = 0.0);
  void AddPredicateAlias(PredicateId id, std::string_view surface,
                         double weight = 0.0);

  /// Pre-sizes the entity/predicate/fact storage.  The deserialization
  /// path knows the exact counts up front; anything else may skip this.
  void Reserve(int32_t num_entities, int32_t num_predicates,
               int32_t num_facts);

  /// Adopts an already-built frozen alias dictionary in place of the Add
  /// build path — the snapshot load and the delta compose both use it (see
  /// AliasIndex::AdoptFrozen).  The alias index becomes finalized
  /// immediately; Finalize() then skips it.
  void AdoptAliasState(std::shared_ptr<const FrozenAliasDict> dict);

  /// Adds the fact (subject, predicate, object_entity).
  Status AddFact(EntityId subject, PredicateId predicate,
                 EntityId object_entity);
  /// Adds the fact (subject, predicate, "literal").
  Status AddLiteralFact(EntityId subject, PredicateId predicate,
                        std::string_view literal);

  /// Freezes the KB: normalizes alias priors (unless AdoptAliasState
  /// installed finalized ones), builds adjacency.  Must be called exactly
  /// once before any query.
  void Finalize();
  bool finalized() const { return finalized_; }

  // ---- Query phase -------------------------------------------------------

  int32_t num_entities() const {
    return static_cast<int32_t>(entities_.size());
  }
  int32_t num_predicates() const {
    return static_cast<int32_t>(predicates_.size());
  }
  int32_t num_facts() const { return static_cast<int32_t>(facts_.size()); }

  const EntityRecord& entity(EntityId id) const;
  const PredicateRecord& predicate(PredicateId id) const;
  const std::vector<Triple>& facts() const { return facts_; }

  /// Candidate entities whose alias matches `surface` (case-insensitive)
  /// and whose type matches `type` when given (Sec. 3, Step 1).  At most
  /// `max_candidates` results, by descending prior; priors are renormalized
  /// over the returned set so they remain a distribution after type
  /// filtering and truncation.  When `overflow` is non-null it receives the
  /// number of matching candidates *beyond* the cap — the hostile-input
  /// guardrails count these into tenet_input_truncated_total{candidates}
  /// without changing which candidates are returned or how their priors
  /// renormalize (the clean path stays bit-identical).  The alias lookup
  /// is recorded in `outcomes` when non-null (AliasIndex::LookupEntities).
  std::vector<EntityCandidate> CandidateEntities(
      std::string_view surface, std::optional<EntityType> type,
      int max_candidates, int* overflow = nullptr,
      DependencyOutcomes* outcomes = nullptr) const;

  /// Candidate predicates for a (lemmatized) relational phrase
  /// (Sec. 3, Step 2).  `overflow` and `outcomes` as in CandidateEntities.
  std::vector<PredicateCandidate> CandidatePredicates(
      std::string_view surface, int max_candidates, int* overflow = nullptr,
      DependencyOutcomes* outcomes = nullptr) const;

  /// Indices into facts() where `id` appears as subject or object.  The
  /// span points into a flat CSR arena owned by the KB, valid as long as
  /// the KB lives.
  std::span<const int32_t> FactsOfEntity(EntityId id) const;
  /// Indices into facts() using predicate `id`.
  std::span<const int32_t> FactsOfPredicate(PredicateId id) const;

  /// Distinct entities adjacent to `id` through any fact.
  std::vector<EntityId> NeighborEntities(EntityId id) const;

  const AliasIndex& alias_index() const { return alias_index_; }

 private:
  std::vector<EntityRecord> entities_;
  std::vector<PredicateRecord> predicates_;
  std::vector<Triple> facts_;
  AliasIndex alias_index_;
  // Adjacency in CSR form: ids_[offsets_[i] .. offsets_[i + 1]) are the
  // fact indices of concept i.  Two allocations total instead of one
  // vector per concept — the difference between reconstructing a snapshot
  // in linear time and drowning in small mallocs.
  std::vector<int32_t> entity_fact_ids_;
  std::vector<uint32_t> entity_fact_offsets_;
  std::vector<int32_t> predicate_fact_ids_;
  std::vector<uint32_t> predicate_fact_offsets_;
  bool finalized_ = false;
};

}  // namespace kb
}  // namespace tenet

#endif  // TENET_KB_KNOWLEDGE_BASE_H_
