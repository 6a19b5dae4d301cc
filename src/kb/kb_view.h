#ifndef TENET_KB_KB_VIEW_H_
#define TENET_KB_KB_VIEW_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "embedding/embedding_store.h"
#include "kb/knowledge_base.h"
#include "kb/types.h"

namespace tenet {
namespace kb {

// Read path over the KB substrate — the one handle the pipeline, the
// baselines, and the serving layer consume: a finalized KnowledgeBase plus
// its EmbeddingStore, both borrowed (they must outlive the view).  Cheap
// to copy (two pointers) and safe for concurrent readers.  See DESIGN.md
// §14.
class KbView {
 public:
  KbView(const KnowledgeBase* kb, const embedding::EmbeddingStore* embeddings)
      : kb_(kb), embeddings_(embeddings) {
    TENET_CHECK(kb != nullptr);
    TENET_CHECK(embeddings != nullptr);
    TENET_CHECK(kb->finalized());
    TENET_CHECK(embeddings->finalized());
  }

  // ---- candidate generation ----------------------------------------------

  /// Candidate entities whose alias matches `surface`; see
  /// KnowledgeBase::CandidateEntities (type filter, cap, overflow
  /// counting, renormalization over the returned set).
  std::vector<EntityCandidate> CandidateEntities(
      std::string_view surface, std::optional<EntityType> type,
      int max_candidates, int* overflow = nullptr,
      DependencyOutcomes* outcomes = nullptr) const {
    return kb_->CandidateEntities(surface, type, max_candidates, overflow,
                                  outcomes);
  }

  /// Candidate predicates; see KnowledgeBase::CandidatePredicates.
  std::vector<PredicateCandidate> CandidatePredicates(
      std::string_view surface, int max_candidates, int* overflow = nullptr,
      DependencyOutcomes* outcomes = nullptr) const {
    return kb_->CandidatePredicates(surface, max_candidates, overflow,
                                    outcomes);
  }

  // ---- fact access -------------------------------------------------------

  /// Ids of the facts where `id` appears as subject or object, ascending.
  std::span<const int32_t> FactsOfEntity(EntityId id) const {
    return kb_->FactsOfEntity(id);
  }
  /// Ids of the facts using predicate `id`, ascending.
  std::span<const int32_t> FactsOfPredicate(PredicateId id) const {
    return kb_->FactsOfPredicate(id);
  }
  const Triple& fact(int32_t id) const { return kb_->facts()[id]; }

  /// Distinct entities adjacent to `id` through any fact, in first-seen
  /// order over the ascending fact ids.
  std::vector<EntityId> NeighborEntities(EntityId id) const {
    return kb_->NeighborEntities(id);
  }

  // ---- embeddings --------------------------------------------------------

  int dimension() const { return embeddings_->dimension(); }

  /// Cosine similarity in [-1, 1]; one embedding/fetch operation per
  /// call, recorded in `outcomes` when non-null; fired faults yield 0 (see
  /// EmbeddingStore).
  double Cosine(ConceptRef a, ConceptRef b,
                DependencyOutcomes* outcomes = nullptr) const {
    return embeddings_->Cosine(a, b, outcomes);
  }

  /// Batched unit-row fetch; one embedding/fetch operation for the whole
  /// gather, fired faults zero-fill `out` (see EmbeddingStore::GatherUnit).
  void GatherUnit(std::span<const ConceptRef> refs, double* out,
                  DependencyOutcomes* outcomes = nullptr) const {
    embeddings_->GatherUnit(refs, out, outcomes);
  }

 private:
  const KnowledgeBase* kb_;
  const embedding::EmbeddingStore* embeddings_;
};

}  // namespace kb
}  // namespace tenet

#endif  // TENET_KB_KB_VIEW_H_
