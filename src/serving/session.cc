#include "serving/session.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/string_util.h"

namespace tenet {
namespace serving {
namespace {

// Folded short form of a surface: its last space-separated word, lowered.
// Empty when the surface is a single word (the surface itself already
// covers that key).
std::string ShortFormKey(const std::string& folded_surface) {
  const size_t at = folded_surface.rfind(' ');
  if (at == std::string::npos) return std::string();
  return folded_surface.substr(at + 1);
}

}  // namespace

SessionContext::SessionContext(SessionOptions options) : options_(options) {}

void SessionContext::Remember(const std::string& surface,
                              kb::EntityId entity, double prior) {
  auto note = [&](std::string key) {
    if (key.empty()) return;
    auto [it, inserted] = surface_memory_.try_emplace(
        std::move(key), MemoryEntry{entity, prior});
    if (!inserted && it->second.entity != entity) {
      // Two entities behind one surface in one conversation: poison the
      // key — applying it would be a guess, not coreference.
      it->second.entity = kb::kInvalidEntity;
    }
  };
  const std::string folded = AsciiToLower(surface);
  note(folded);
  note(ShortFormKey(folded));
}

void SessionContext::ObserveTurn(const core::LinkingResult& result) {
  for (const core::LinkedConcept& link : result.links) {
    if (!link.concept_ref.is_entity()) continue;
    seen_entities_.insert(link.concept_ref.id);
    Remember(link.surface, link.concept_ref.id, link.prior);
  }
  ++turns_observed_;
}

SessionTurnStats SessionContext::ApplySessionCoherence(
    const kb::KbView& view, core::LinkingResult* result) {
  return ApplySessionCoherenceImpl(
      [&view](const std::string& surface, std::optional<kb::EntityType> type,
              int max_candidates) {
        return view.CandidateEntities(surface, type, max_candidates);
      },
      result);
}

SessionTurnStats SessionContext::ApplySessionCoherence(
    const kb::KnowledgeBase& kb, core::LinkingResult* result) {
  return ApplySessionCoherenceImpl(
      [&kb](const std::string& surface, std::optional<kb::EntityType> type,
            int max_candidates) {
        return kb.CandidateEntities(surface, type, max_candidates);
      },
      result);
}

template <typename CandidateFn>
SessionTurnStats SessionContext::ApplySessionCoherenceImpl(
    CandidateFn&& candidate_fn, core::LinkingResult* result) {
  SessionTurnStats stats;
  if (!options_.apply_entity_memory || turns_observed_ == 0 ||
      result == nullptr) {
    return stats;
  }

  // Pass 1: re-rank existing entity links.  A link whose folded surface is
  // remembered unambiguously flips to the remembered entity; otherwise,
  // if any KB candidate of the surface was seen earlier in the session,
  // the best-prior seen candidate wins over the context-free choice.
  for (core::LinkedConcept& link : result->links) {
    if (!link.concept_ref.is_entity()) continue;
    if (seen_entities_.count(link.concept_ref.id) > 0) continue;  // agrees
    const std::string folded = AsciiToLower(link.surface);
    auto it = surface_memory_.find(folded);
    if (it != surface_memory_.end() &&
        it->second.entity != kb::kInvalidEntity) {
      link.concept_ref = kb::ConceptRef::Entity(it->second.entity);
      link.prior = it->second.prior;
      ++stats.relinked_to_memory;
      continue;
    }
    const core::Mention& mention = result->mentions.mention(link.mention_id);
    const kb::EntityCandidate* best_seen = nullptr;
    std::vector<kb::EntityCandidate> candidates = candidate_fn(
        link.surface, mention.type, options_.memory_probe_candidates);
    for (const kb::EntityCandidate& c : candidates) {
      if (seen_entities_.count(c.entity) == 0) continue;
      if (best_seen == nullptr || c.prior > best_seen->prior) best_seen = &c;
    }
    if (best_seen != nullptr) {
      link.concept_ref = kb::ConceptRef::Entity(best_seen->entity);
      link.prior = best_seen->prior;
      ++stats.relinked_to_memory;
    }
  }

  // Pass 2: isolated mentions whose surface (often a bare short form with
  // no KB alias) is remembered become session-coreference links.
  std::vector<int> still_isolated;
  still_isolated.reserve(result->isolated_mentions.size());
  for (int m : result->isolated_mentions) {
    const core::Mention& mention = result->mentions.mention(m);
    bool resolved = false;
    if (mention.is_noun()) {
      auto it = surface_memory_.find(AsciiToLower(mention.surface));
      if (it != surface_memory_.end() &&
          it->second.entity != kb::kInvalidEntity) {
        core::LinkedConcept link;
        link.mention_id = m;
        link.surface = mention.surface;
        link.kind = mention.kind;
        link.concept_ref = kb::ConceptRef::Entity(it->second.entity);
        link.prior = it->second.prior;
        result->links.push_back(std::move(link));
        resolved = true;
        ++stats.isolated_resolved;
      }
    }
    if (!resolved) still_isolated.push_back(m);
  }
  if (stats.isolated_resolved > 0) {
    result->isolated_mentions = std::move(still_isolated);
    std::sort(result->links.begin(), result->links.end(),
              [](const core::LinkedConcept& a, const core::LinkedConcept& b) {
                return a.mention_id < b.mention_id;
              });
  }
  return stats;
}

}  // namespace serving
}  // namespace tenet
