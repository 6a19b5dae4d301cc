#ifndef TENET_KB_SYNTHETIC_KB_H_
#define TENET_KB_SYNTHETIC_KB_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "kb/knowledge_base.h"
#include "text/gazetteer.h"

namespace tenet {
namespace kb {

// Knobs of the synthetic Wikidata-like KB (DESIGN.md §1, substitution for
// the 2021-02-08 Wikidata dump).  Defaults produce a KB large enough for
// all experiments yet generated in milliseconds.
struct SyntheticKbOptions {
  /// Topical clusters; intra-domain concepts are semantically related.
  int num_domains = 10;
  /// Plain (non-composite) entities per domain.
  int entities_per_domain = 50;
  /// Composite entities per domain whose labels join two other surfaces by
  /// a linguistic feature ("The Storm on the Sea of Galilee" pattern);
  /// these exercise the mention-canopy machinery.
  int composite_entities_per_domain = 6;
  /// Predicates in total; each has a home domain.
  int num_predicates = 40;
  /// Fraction of entities that carry an extra alias equal to another
  /// entity's label (the "Michael Jordan" scenario: one surface, many
  /// entities, skewed priors).
  double ambiguous_alias_fraction = 0.50;
  /// Fraction of persons also aliased by their bare last name.
  double short_alias_fraction = 0.6;
  /// Probability that a predicate carries a second verb alias already used
  /// by another predicate (relational ambiguity).
  double predicate_alias_collision = 0.55;
  /// Facts per entity.
  int facts_per_entity = 3;
  /// Fraction of facts whose object lies outside the subject's domain.
  double cross_domain_fact_fraction = 0.12;
  /// Zipf exponent of within-domain popularity.
  double popularity_zipf = 0.6;

  /// The "huge" tier: ~58k entities and ~170k facts, an order of
  /// magnitude past the largest evaluation world, where snapshot load and
  /// lookup costs dominate the fixed overheads (the huge_docs benchmark
  /// workload and the alias-lookup micro-benchmark).  Still generated in a
  /// few hundred milliseconds.
  static SyntheticKbOptions Huge();
};

// The generated world: a finalized KB plus the bookkeeping the corpus
// generator and the NER gazetteer need.
struct SyntheticKb {
  KnowledgeBase kb;
  text::Gazetteer gazetteer;

  /// Entity ids per domain (composites included).
  std::vector<std::vector<EntityId>> entities_by_domain;
  /// Composite entity ids per domain (labels containing a linguistic
  /// feature, the canopy exercisers).
  std::vector<std::vector<EntityId>> composites_by_domain;
  /// Predicate ids per home domain.
  std::vector<std::vector<PredicateId>> predicates_by_domain;
  /// Surfaces an entity may be rendered as in a document, label first.
  std::vector<std::vector<std::string>> entity_surfaces;
  /// Lemma phrases a predicate may be rendered as, label first.
  std::vector<std::vector<std::string>> predicate_surfaces;
};

// Deterministic generator; same options + seed => identical KB.
class SyntheticKbGenerator {
 public:
  explicit SyntheticKbGenerator(SyntheticKbOptions options = {})
      : options_(options) {}

  SyntheticKb Generate(Rng& rng) const;

  const SyntheticKbOptions& options() const { return options_; }

 private:
  SyntheticKbOptions options_;
};

}  // namespace kb
}  // namespace tenet

#endif  // TENET_KB_SYNTHETIC_KB_H_
