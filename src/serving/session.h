#ifndef TENET_SERVING_SESSION_H_
#define TENET_SERVING_SESSION_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "core/link_context.h"
#include "core/pipeline.h"
#include "embedding/similarity_cache.h"
#include "kb/kb_view.h"
#include "kb/knowledge_base.h"

namespace tenet {
namespace serving {

// Session-scoped serving state for streaming/conversational workloads
// (DESIGN.md §13): the entity memory of one conversation.  It holds the
// entities earlier turns resolved, keyed by the surfaces that resolved to
// them and by their pronoun-like short forms (last word of the surface).
// Later turns referencing a cast member by an ambiguous alias or a bare
// short form are re-ranked against this memory — among a mention's KB
// candidates, a previously-seen entity wins; an isolated mention whose
// surface is remembered links to the remembered entity.
//
// Lifecycle: construct per conversation, call ApplySessionCoherence +
// ObserveTurn on each turn's result in order, destroy with the
// conversation.  A SessionContext is NOT thread-safe — turns of one
// session are inherently sequential; concurrent *sessions* each own their
// context.
struct SessionOptions {
  /// Ignored; kept because perfbench sets it, until ROADMAP item 1.
  size_t similarity_cache_bytes = 1u << 20;
  /// When false, entity memory is kept but never applied (ablation knob:
  /// sessions that only observe).
  bool apply_entity_memory = true;
  /// Candidates probed per linked mention when re-ranking against memory.
  int memory_probe_candidates = 8;
};

/// What the session layer changed about one turn (diagnostics + tests).
struct SessionTurnStats {
  int relinked_to_memory = 0;  // links flipped to a remembered entity
  int isolated_resolved = 0;   // isolated mentions linked from memory
};

class SessionContext {
 public:
  explicit SessionContext(SessionOptions options = {});

  /// Link-request envelope for the next turn.  Deadline and trace are the
  /// caller's to fill in.
  core::LinkContext MakeLinkContext() const { return {}; }

  /// Re-ranks `result` against the session's entity memory (no-op on the
  /// first turn or when apply_entity_memory is off).  Call before scoring
  /// and before ObserveTurn.
  SessionTurnStats ApplySessionCoherence(const kb::KbView& view,
                                         core::LinkingResult* result);

  /// Same, straight over a KnowledgeBase.
  SessionTurnStats ApplySessionCoherence(const kb::KnowledgeBase& kb,
                                         core::LinkingResult* result);

  /// Records a turn's resolved entities into the session memory.
  void ObserveTurn(const core::LinkingResult& result);

  int turns_observed() const { return turns_observed_; }
  const SessionOptions& options() const { return options_; }
  /// Never null, all stats zero; kept for perfbench until ROADMAP item 1.
  embedding::SimilarityCache* similarity_cache() { return &cache_; }

 private:
  void Remember(const std::string& surface, kb::EntityId entity,
                double prior);

  /// Shared body of both overloads; `candidates` yields the KB candidates
  /// of a surface under the substrate at hand.
  template <typename CandidateFn>
  SessionTurnStats ApplySessionCoherenceImpl(CandidateFn&& candidates,
                                             core::LinkingResult* result);

  SessionOptions options_;
  embedding::SimilarityCache cache_;
  int turns_observed_ = 0;

  struct MemoryEntry {
    kb::EntityId entity = kb::kInvalidEntity;  // kInvalidEntity: ambiguous
    double prior = 0.0;
  };
  /// Folded surface (and folded short form) -> remembered entity.  A key
  /// observed with two different entities is poisoned (kInvalidEntity):
  /// session memory only ever applies unambiguous history.
  std::unordered_map<std::string, MemoryEntry> surface_memory_;
  std::unordered_set<kb::EntityId> seen_entities_;
};

}  // namespace serving
}  // namespace tenet

#endif  // TENET_SERVING_SESSION_H_
