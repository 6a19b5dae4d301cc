#include "kb/knowledge_base.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"

namespace tenet {
namespace kb {
namespace {

// Candidate post-processing shared by CandidateEntities and
// CandidatePredicates: filter with `keep`, truncate at the cap (counting
// the overflow when asked), convert with `make`, then renormalize the
// returned set.
template <typename Candidate, typename KeepFn, typename MakeFn>
std::vector<Candidate> SelectCandidates(
    std::span<const AliasPosting> postings, int max_candidates,
    int* overflow, KeepFn&& keep, MakeFn&& make) {
  if (overflow != nullptr) *overflow = 0;
  std::vector<Candidate> out;
  if (max_candidates <= 0) return out;
  for (const AliasPosting& posting : postings) {
    if (!keep(posting)) continue;
    if (static_cast<int>(out.size()) == max_candidates) {
      // Past the cap: only keep counting when the caller asked to observe
      // truncation; the returned set and its renormalization are unchanged.
      if (overflow == nullptr) break;
      ++*overflow;
      continue;
    }
    out.push_back(make(posting));
  }
  // Renormalize so the truncated/filtered set is still a distribution.
  double total = 0.0;
  for (const Candidate& c : out) total += c.prior;
  if (total > 0.0) {
    for (Candidate& c : out) c.prior /= total;
  }
  return out;
}

}  // namespace

EntityId KnowledgeBase::AddEntity(std::string_view label, EntityType type,
                                  int32_t domain, double popularity,
                                  bool register_label_alias) {
  TENET_CHECK(!finalized_);
  TENET_CHECK_GT(popularity, 0.0);
  EntityId id = static_cast<EntityId>(entities_.size());
  entities_.push_back(
      EntityRecord{std::string(label), type, domain, popularity});
  if (register_label_alias) {
    alias_index_.Add(label, ConceptRef::Entity(id), popularity);
  }
  return id;
}

PredicateId KnowledgeBase::AddPredicate(std::string_view label,
                                        int32_t domain, double popularity,
                                        bool register_label_alias) {
  TENET_CHECK(!finalized_);
  TENET_CHECK_GT(popularity, 0.0);
  PredicateId id = static_cast<PredicateId>(predicates_.size());
  predicates_.push_back(
      PredicateRecord{std::string(label), domain, popularity});
  if (register_label_alias) {
    alias_index_.Add(label, ConceptRef::Predicate(id), popularity);
  }
  return id;
}

void KnowledgeBase::AddEntityAlias(EntityId id, std::string_view surface,
                                   double weight) {
  TENET_CHECK(!finalized_);
  TENET_CHECK(id >= 0 && id < num_entities());
  double w = weight > 0.0 ? weight : entities_[id].popularity;
  alias_index_.Add(surface, ConceptRef::Entity(id), w);
}

void KnowledgeBase::AddPredicateAlias(PredicateId id,
                                      std::string_view surface,
                                      double weight) {
  TENET_CHECK(!finalized_);
  TENET_CHECK(id >= 0 && id < num_predicates());
  double w = weight > 0.0 ? weight : predicates_[id].popularity;
  alias_index_.Add(surface, ConceptRef::Predicate(id), w);
}

void KnowledgeBase::Reserve(int32_t num_entities, int32_t num_predicates,
                            int32_t num_facts) {
  TENET_CHECK(!finalized_);
  entities_.reserve(num_entities);
  predicates_.reserve(num_predicates);
  facts_.reserve(num_facts);
}

void KnowledgeBase::AdoptAliasState(
    std::shared_ptr<const FrozenAliasDict> dict) {
  TENET_CHECK(!finalized_);
  alias_index_.AdoptFrozen(std::move(dict));
}

Status KnowledgeBase::AddFact(EntityId subject, PredicateId predicate,
                              EntityId object_entity) {
  TENET_CHECK(!finalized_);
  if (subject < 0 || subject >= num_entities()) {
    return Status::InvalidArgument("bad subject entity id");
  }
  if (object_entity < 0 || object_entity >= num_entities()) {
    return Status::InvalidArgument("bad object entity id");
  }
  if (predicate < 0 || predicate >= num_predicates()) {
    return Status::InvalidArgument("bad predicate id");
  }
  Triple t;
  t.subject = subject;
  t.predicate = predicate;
  t.object_entity = object_entity;
  t.object_is_entity = true;
  facts_.push_back(std::move(t));
  return Status::Ok();
}

Status KnowledgeBase::AddLiteralFact(EntityId subject, PredicateId predicate,
                                     std::string_view literal) {
  TENET_CHECK(!finalized_);
  if (subject < 0 || subject >= num_entities()) {
    return Status::InvalidArgument("bad subject entity id");
  }
  if (predicate < 0 || predicate >= num_predicates()) {
    return Status::InvalidArgument("bad predicate id");
  }
  Triple t;
  t.subject = subject;
  t.predicate = predicate;
  t.object_literal = std::string(literal);
  t.object_is_entity = false;
  facts_.push_back(std::move(t));
  return Status::Ok();
}

void KnowledgeBase::Finalize() {
  TENET_CHECK(!finalized_) << "KnowledgeBase::Finalize called twice";
  // AdoptAliasState may have installed the frozen dictionary already; the
  // alias index is then finalized and only the CSR build remains.
  if (!alias_index_.finalized()) alias_index_.Finalize();
  // Counted two-pass CSR build: degree count, prefix sums, then a fill
  // pass through cursor copies of the offsets.  Two arena allocations per
  // concept kind instead of one vector per concept — the dominant cost of
  // reconstructing a large KB is small mallocs, not arithmetic.
  entity_fact_offsets_.assign(entities_.size() + 1, 0);
  predicate_fact_offsets_.assign(predicates_.size() + 1, 0);
  for (const Triple& t : facts_) {
    ++entity_fact_offsets_[t.subject + 1];
    if (t.object_is_entity && t.object_entity != t.subject) {
      ++entity_fact_offsets_[t.object_entity + 1];
    }
    ++predicate_fact_offsets_[t.predicate + 1];
  }
  for (size_t i = 1; i < entity_fact_offsets_.size(); ++i) {
    entity_fact_offsets_[i] += entity_fact_offsets_[i - 1];
  }
  for (size_t i = 1; i < predicate_fact_offsets_.size(); ++i) {
    predicate_fact_offsets_[i] += predicate_fact_offsets_[i - 1];
  }
  entity_fact_ids_.resize(entity_fact_offsets_.back());
  predicate_fact_ids_.resize(predicate_fact_offsets_.back());
  std::vector<uint32_t> entity_cursor(entity_fact_offsets_.begin(),
                                      entity_fact_offsets_.end() - 1);
  std::vector<uint32_t> predicate_cursor(predicate_fact_offsets_.begin(),
                                         predicate_fact_offsets_.end() - 1);
  for (int32_t i = 0; i < num_facts(); ++i) {
    const Triple& t = facts_[i];
    entity_fact_ids_[entity_cursor[t.subject]++] = i;
    if (t.object_is_entity && t.object_entity != t.subject) {
      entity_fact_ids_[entity_cursor[t.object_entity]++] = i;
    }
    predicate_fact_ids_[predicate_cursor[t.predicate]++] = i;
  }
  finalized_ = true;
}

const EntityRecord& KnowledgeBase::entity(EntityId id) const {
  TENET_CHECK(id >= 0 && id < num_entities()) << "bad entity id " << id;
  return entities_[id];
}

const PredicateRecord& KnowledgeBase::predicate(PredicateId id) const {
  TENET_CHECK(id >= 0 && id < num_predicates()) << "bad predicate id " << id;
  return predicates_[id];
}

std::vector<EntityCandidate> KnowledgeBase::CandidateEntities(
    std::string_view surface, std::optional<EntityType> type,
    int max_candidates, int* overflow, DependencyOutcomes* outcomes) const {
  TENET_CHECK(finalized_);
  return SelectCandidates<EntityCandidate>(
      alias_index_.LookupEntities(surface, outcomes), max_candidates,
      overflow,
      [&](const AliasPosting& posting) {
        return !type.has_value() ||
               entities_[posting.concept_ref.id].type == *type;
      },
      [](const AliasPosting& posting) {
        return EntityCandidate{posting.concept_ref.id, posting.prior};
      });
}

std::vector<PredicateCandidate> KnowledgeBase::CandidatePredicates(
    std::string_view surface, int max_candidates, int* overflow,
    DependencyOutcomes* outcomes) const {
  TENET_CHECK(finalized_);
  return SelectCandidates<PredicateCandidate>(
      alias_index_.LookupPredicates(surface, outcomes), max_candidates,
      overflow,
      [](const AliasPosting&) { return true; },
      [](const AliasPosting& posting) {
        return PredicateCandidate{posting.concept_ref.id, posting.prior};
      });
}

std::span<const int32_t> KnowledgeBase::FactsOfEntity(EntityId id) const {
  TENET_CHECK(finalized_);
  TENET_CHECK(id >= 0 && id < num_entities());
  return std::span<const int32_t>(entity_fact_ids_)
      .subspan(entity_fact_offsets_[id],
               entity_fact_offsets_[id + 1] - entity_fact_offsets_[id]);
}

std::span<const int32_t> KnowledgeBase::FactsOfPredicate(
    PredicateId id) const {
  TENET_CHECK(finalized_);
  TENET_CHECK(id >= 0 && id < num_predicates());
  return std::span<const int32_t>(predicate_fact_ids_)
      .subspan(predicate_fact_offsets_[id],
               predicate_fact_offsets_[id + 1] - predicate_fact_offsets_[id]);
}

std::vector<EntityId> KnowledgeBase::NeighborEntities(EntityId id) const {
  TENET_CHECK(finalized_);
  std::unordered_set<EntityId> seen;
  std::vector<EntityId> out;
  for (int32_t fact_index : FactsOfEntity(id)) {
    const Triple& t = facts_[fact_index];
    EntityId other = kInvalidEntity;
    if (t.subject == id && t.object_is_entity) {
      other = t.object_entity;
    } else if (t.object_is_entity && t.object_entity == id) {
      other = t.subject;
    }
    if (other != kInvalidEntity && other != id && seen.insert(other).second) {
      out.push_back(other);
    }
  }
  return out;
}

}  // namespace kb
}  // namespace tenet
