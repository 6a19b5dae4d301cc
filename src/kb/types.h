#ifndef TENET_KB_TYPES_H_
#define TENET_KB_TYPES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace tenet {
namespace kb {

/// Dense id of an entity within a KnowledgeBase (0-based).
using EntityId = int32_t;
/// Dense id of a predicate within a KnowledgeBase (0-based).
using PredicateId = int32_t;

inline constexpr EntityId kInvalidEntity = -1;
inline constexpr PredicateId kInvalidPredicate = -1;

// Coarse entity types, mirroring the type information produced by the NER
// stage of the paper's linguistic pipeline (Sec. 3, Step 1).  Candidate
// entities must match the noun phrase's type.
enum class EntityType : uint8_t {
  kPerson = 0,
  kOrganization,
  kLocation,
  kWork,       // creative works ("The Storm on the Sea of Galilee")
  kTopic,      // fields of study, abstract topics ("machine learning")
  kEvent,
  kProduct,
  kOther,
};

inline constexpr int kNumEntityTypes = 8;

/// Canonical lower_snake_case name of `type` (e.g. "person").
std::string_view EntityTypeToString(EntityType type);

// A concept in the paper's terminology is either an entity or a predicate
// (Definition 5).  ConceptRef is the tagged id used wherever the two are
// handled uniformly (alias index, coherence graph, disambiguation result).
struct ConceptRef {
  enum class Kind : uint8_t { kEntity = 0, kPredicate = 1 };

  Kind kind = Kind::kEntity;
  int32_t id = -1;

  static ConceptRef Entity(EntityId id) {
    return ConceptRef{Kind::kEntity, id};
  }
  static ConceptRef Predicate(PredicateId id) {
    return ConceptRef{Kind::kPredicate, id};
  }

  bool is_entity() const { return kind == Kind::kEntity; }
  bool is_predicate() const { return kind == Kind::kPredicate; }
  bool valid() const { return id >= 0; }

  friend bool operator==(const ConceptRef& a, const ConceptRef& b) {
    return a.kind == b.kind && a.id == b.id;
  }
  friend bool operator!=(const ConceptRef& a, const ConceptRef& b) {
    return !(a == b);
  }
  friend bool operator<(const ConceptRef& a, const ConceptRef& b) {
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.id < b.id;
  }
};

/// Renders e.g. "E12" or "P3" for logs and test output.
std::string ConceptRefToString(const ConceptRef& ref);

// One candidate concept for a surface form, with its prior matching
// probability P(c | surface) (Equations 1 and 2 of the paper).
struct AliasPosting {
  ConceptRef concept_ref;
  /// Raw popularity weight before Finalize(); P(c|surface) afterwards.
  double prior = 0.0;
};

/// Canonical total order of the postings of one surface: descending prior,
/// then entities before predicates, then ascending id.  Finalize() sorts
/// every posting list this way; because no two distinct postings compare
/// equal, the order (and so every candidate list) is independent of the
/// order in which aliases were added.
inline bool CanonicalPostingOrder(const AliasPosting& a,
                                  const AliasPosting& b) {
  if (a.prior != b.prior) return a.prior > b.prior;
  if (a.concept_ref.kind != b.concept_ref.kind) {
    return a.concept_ref.kind < b.concept_ref.kind;
  }
  return a.concept_ref.id < b.concept_ref.id;
}

}  // namespace kb
}  // namespace tenet

template <>
struct std::hash<tenet::kb::ConceptRef> {
  size_t operator()(const tenet::kb::ConceptRef& ref) const noexcept {
    return (static_cast<size_t>(ref.kind) << 31) ^
           static_cast<size_t>(ref.id);
  }
};

#endif  // TENET_KB_TYPES_H_
