#include "kb/alias_index.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/dependency_health.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace tenet {
namespace kb {

void AliasIndex::Add(std::string_view surface, ConceptRef concept_ref,
                     double weight) {
  TENET_CHECK(!finalized_) << "AliasIndex::Add after Finalize";
  TENET_CHECK_GT(weight, 0.0);
  TENET_CHECK(concept_ref.valid());
  std::string key = AsciiToLower(surface);
  if (key.empty()) return;
  std::vector<AliasPosting>& list = building_[key];
  for (AliasPosting& posting : list) {
    if (posting.concept_ref == concept_ref) {
      posting.prior += weight;
      return;
    }
  }
  list.push_back(AliasPosting{concept_ref, weight});
}

void AliasIndex::Finalize() {
  TENET_CHECK(!finalized_) << "AliasIndex::Finalize called twice";
  // Normalize per (surface, kind), then sort into the canonical order.
  // The order is total, so the result is deterministic regardless of
  // insertion order.  The dictionary wants surfaces in sorted order.
  std::vector<std::pair<const std::string, std::vector<AliasPosting>>*>
      surfaces;
  surfaces.reserve(building_.size());
  for (auto& entry : building_) {
    std::vector<AliasPosting>& list = entry.second;
    double entity_total = 0.0;
    double predicate_total = 0.0;
    for (const AliasPosting& posting : list) {
      if (posting.concept_ref.is_entity()) {
        entity_total += posting.prior;
      } else {
        predicate_total += posting.prior;
      }
    }
    for (AliasPosting& posting : list) {
      double total =
          posting.concept_ref.is_entity() ? entity_total : predicate_total;
      posting.prior = total > 0.0 ? posting.prior / total : 0.0;
    }
    std::sort(list.begin(), list.end(), CanonicalPostingOrder);
    surfaces.push_back(&entry);
  }
  std::sort(surfaces.begin(), surfaces.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  FrozenAliasDict::Builder builder;
  for (const auto* entry : surfaces) {
    builder.Add(entry->first, entry->second);
  }
  dict_ = std::move(builder).Build();
  building_ = {};  // the build tier is dead weight from here on
  finalized_ = true;
}

void AliasIndex::AdoptFrozen(std::shared_ptr<const FrozenAliasDict> dict) {
  TENET_CHECK(!finalized_) << "AliasIndex::AdoptFrozen after Finalize";
  TENET_CHECK(dict != nullptr);
  dict_ = std::move(dict);
  building_ = {};
  finalized_ = true;
}

size_t AliasIndex::num_surfaces() const {
  return finalized_ ? dict_->num_surfaces() : building_.size();
}

std::span<const AliasPosting> AliasIndex::Lookup(
    std::string_view surface, ConceptRef::Kind kind,
    DependencyOutcomes* outcomes) const {
  TENET_CHECK(finalized_) << "AliasIndex::Lookup before Finalize";
  // A fired lookup fault behaves like an index miss: the mention simply has
  // no candidates, which downstream stages must tolerate anyway.  (A genuine
  // miss for an unknown surface is a healthy outcome, not a failure.)
  const bool faulted = TENET_FAULT_POINT("kb/alias_lookup");
  if (outcomes != nullptr) {
    outcomes->Record(Dependency::kKbAliasLookup, !faulted);
  }
  if (faulted) return {};
  // The dictionary folds the probe on the fly — no allocation, no posting
  // copy.
  return kind == ConceptRef::Kind::kEntity ? dict_->Entities(surface)
                                           : dict_->Predicates(surface);
}

std::span<const AliasPosting> AliasIndex::LookupEntities(
    std::string_view surface, DependencyOutcomes* outcomes) const {
  return Lookup(surface, ConceptRef::Kind::kEntity, outcomes);
}

std::span<const AliasPosting> AliasIndex::LookupPredicates(
    std::string_view surface, DependencyOutcomes* outcomes) const {
  return Lookup(surface, ConceptRef::Kind::kPredicate, outcomes);
}

void AliasIndex::VisitPostings(
    const std::function<void(std::string_view, const AliasPosting&)>&
        visitor) const {
  if (!finalized_) {
    for (const auto& [surface, list] : building_) {
      for (const AliasPosting& posting : list) {
        visitor(surface, posting);
      }
    }
    return;
  }
  dict_->VisitSurfaces(
      [&](std::string_view surface, std::span<const AliasPosting> list) {
        for (const AliasPosting& posting : list) {
          visitor(surface, posting);
        }
      });
}

}  // namespace kb
}  // namespace tenet
