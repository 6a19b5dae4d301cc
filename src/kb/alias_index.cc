#include "kb/alias_index.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/dependency_health.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "obs/metrics.h"

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

void AliasIndex::AdoptFrozen(std::shared_ptr<const FrozenAliasDict> dict,
                             OverlayMap overlay) {
  TENET_CHECK(!finalized_) << "AliasIndex::AdoptFrozen after Finalize";
  TENET_CHECK(dict != nullptr);
  dict_ = std::move(dict);
  overlay_ = std::move(overlay);
  building_ = {};
  finalized_ = true;
}

size_t AliasIndex::num_surfaces() const {
  if (!finalized_) return building_.size();
  // Overlay entries either shadow a dictionary surface (tombstones subtract
  // it, replacements are a wash) or introduce a new one.
  size_t total = dict_->num_surfaces();
  std::string key;
  for (const auto& [surface, entry] : overlay_) {
    const bool in_dict = dict_->Find(surface) >= 0;
    if (entry.interleaved.empty()) {
      if (in_dict) --total;  // tombstone
    } else if (!in_dict) {
      ++total;  // overlay-only surface
    }
  }
  return total;
}

std::span<const AliasPosting> AliasIndex::Lookup(
    std::string_view surface, ConceptRef::Kind kind) const {
  TENET_CHECK(finalized_) << "AliasIndex::Lookup before Finalize";
  // A fired lookup fault behaves like an index miss: the mention simply has
  // no candidates, which downstream stages must tolerate anyway.  (A genuine
  // miss for an unknown surface is a healthy outcome, not a failure.)
  const bool faulted = TENET_FAULT_POINT("kb/alias_lookup");
  TENET_OBSERVE_DEPENDENCY("kb/alias_lookup", !faulted);
  static obs::DependencyOpCounters& ops =
      *new obs::DependencyOpCounters("kb/alias_lookup");
  ops.Record(!faulted);
  if (faulted) return {};
  if (!overlay_.empty()) {
    // Rare tier (only populated between delta apply and the next compact):
    // pay the fold allocation here to keep the common path allocation-free.
    std::string key = AsciiToLower(surface);
    auto it = overlay_.find(std::string_view(key));
    if (it != overlay_.end()) {
      const OverlayEntry& entry = it->second;
      if (kind == ConceptRef::Kind::kEntity) {
        return {entry.grouped.data(), entry.entity_count};
      }
      return {entry.grouped.data() + entry.entity_count,
              entry.grouped.size() - entry.entity_count};
    }
  }
  // Hot path: the dictionary folds the probe on the fly — no allocation,
  // no posting copy.
  return kind == ConceptRef::Kind::kEntity ? dict_->Entities(surface)
                                           : dict_->Predicates(surface);
}

std::span<const AliasPosting> AliasIndex::LookupEntities(
    std::string_view surface) const {
  return Lookup(surface, ConceptRef::Kind::kEntity);
}

std::span<const AliasPosting> AliasIndex::LookupPredicates(
    std::string_view surface) const {
  return Lookup(surface, ConceptRef::Kind::kPredicate);
}

bool AliasIndex::ContainsSurface(std::string_view surface,
                                 ConceptRef::Kind kind) const {
  std::string key = AsciiToLower(surface);
  if (!finalized_) {
    auto it = building_.find(key);
    if (it == building_.end()) return false;
    for (const AliasPosting& posting : it->second) {
      if (posting.concept_ref.kind == kind) return true;
    }
    return false;
  }
  if (!overlay_.empty()) {
    auto it = overlay_.find(std::string_view(key));
    if (it != overlay_.end()) {
      const OverlayEntry& entry = it->second;
      if (kind == ConceptRef::Kind::kEntity) return entry.entity_count > 0;
      return entry.grouped.size() > entry.entity_count;
    }
  }
  const int64_t sid = dict_->Find(key);
  if (sid < 0) return false;
  return kind == ConceptRef::Kind::kEntity
             ? !dict_->EntitiesAt(sid).empty()
             : !dict_->PredicatesAt(sid).empty();
}

bool AliasIndex::GetInterleavedPostings(std::string_view folded_surface,
                                        std::vector<AliasPosting>* out) const {
  TENET_CHECK(finalized_)
      << "AliasIndex::GetInterleavedPostings before Finalize";
  auto it = overlay_.find(folded_surface);
  if (it != overlay_.end()) {
    if (it->second.interleaved.empty()) return false;  // tombstone
    out->insert(out->end(), it->second.interleaved.begin(),
                it->second.interleaved.end());
    return true;
  }
  const int64_t sid = dict_->Find(folded_surface);
  if (sid < 0) return false;
  dict_->AppendInterleavedAt(sid, out);
  return true;
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
  if (overlay_.empty()) {
    dict_->VisitSurfaces(
        [&](std::string_view surface, std::span<const AliasPosting> list) {
          for (const AliasPosting& posting : list) {
            visitor(surface, posting);
          }
        });
    return;
  }
  // Sorted two-way merge: overlay keys shadow dictionary keys.
  std::vector<std::string_view> overlay_keys;
  overlay_keys.reserve(overlay_.size());
  for (const auto& [surface, entry] : overlay_) {
    overlay_keys.push_back(surface);
  }
  std::sort(overlay_keys.begin(), overlay_keys.end());
  size_t next_overlay = 0;
  auto emit_overlay = [&](std::string_view surface) {
    const OverlayEntry& entry = overlay_.find(surface)->second;
    for (const AliasPosting& posting : entry.interleaved) {
      visitor(surface, posting);  // tombstones have no postings: silent
    }
  };
  dict_->VisitSurfaces(
      [&](std::string_view surface, std::span<const AliasPosting> list) {
        while (next_overlay < overlay_keys.size() &&
               overlay_keys[next_overlay] < surface) {
          emit_overlay(overlay_keys[next_overlay++]);
        }
        if (next_overlay < overlay_keys.size() &&
            overlay_keys[next_overlay] == surface) {
          emit_overlay(overlay_keys[next_overlay++]);  // overlay wins
          return;
        }
        for (const AliasPosting& posting : list) {
          visitor(surface, posting);
        }
      });
  while (next_overlay < overlay_keys.size()) {
    emit_overlay(overlay_keys[next_overlay++]);
  }
}

std::shared_ptr<const FrozenAliasDict> AliasIndex::SerializableDict() const {
  TENET_CHECK(finalized_)
      << "AliasIndex::SerializableDict before Finalize";
  if (overlay_.empty()) return dict_;
  // Compile the merged view; VisitPostings already yields sorted surfaces
  // with consecutive postings.
  FrozenAliasDict::Builder builder;
  std::string current;
  std::vector<AliasPosting> list;
  bool have_current = false;
  VisitPostings([&](std::string_view surface, const AliasPosting& posting) {
    if (!have_current || surface != current) {
      if (have_current) builder.Add(current, list);
      current.assign(surface);
      list.clear();
      have_current = true;
    }
    list.push_back(posting);
  });
  if (have_current) builder.Add(current, list);
  return std::move(builder).Build();
}

}  // namespace kb
}  // namespace tenet
