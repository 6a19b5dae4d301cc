#ifndef TENET_SERVING_KB_GENERATION_H_
#define TENET_SERVING_KB_GENERATION_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "baselines/tenet_linker.h"
#include "common/result.h"
#include "core/pipeline.h"
#include "embedding/embedding_store.h"
#include "kb/delta.h"
#include "kb/kb_view.h"
#include "kb/knowledge_base.h"
#include "text/gazetteer.h"

namespace tenet {
namespace serving {

// Construction knobs shared by every KbGeneration factory.
struct KbGenerationOptions {
  /// Pipeline tuning of the generation's linker.
  core::TenetOptions linker_options;
};

// One immutable, self-contained serving substrate: a KB snapshot with any
// number of TENETDELTA1 segments applied, plus the embedding store, the
// derived gazetteer, and a TenetLinker built over all of it (DESIGN.md
// §12).  This is the unit the serving layer hot-swaps: requests pin a
// generation for their whole lifetime, so everything here must be — and
// is — immutable after construction.
//
// Generations are heap-only (shared_ptr from the factories, never moved):
// the linker holds raw pointers into the sibling members, which therefore
// must sit at their final addresses before it is built.  Every factory
// goes through one private Create, which rejects a KB and embedding store
// whose concept counts disagree (a row per concept is what every lookup
// assumes) and gives the shared_ptr a deleter that hands the freed pages
// back to the OS (malloc_trim) once a retired generation is destroyed.
// The `id` is the monotonically increasing generation number the caller
// assigns; the serving layer requires each published generation's id to
// exceed the one it replaces.
class KbGeneration {
 public:
  /// Loads the snapshot pair and applies `delta_paths` in order.  A pair
  /// whose concept counts disagree is InvalidArgument, naming both.
  static Result<std::shared_ptr<const KbGeneration>> Load(
      const std::string& kb_path, const std::string& embeddings_path,
      std::span<const std::string> delta_paths, uint64_t id,
      const KbGenerationOptions& options = {});

  /// Wraps an already-built substrate (both must be finalized and agree
  /// on the concept counts; a mismatch aborts).
  static std::shared_ptr<const KbGeneration> FromSubstrate(
      kb::KnowledgeBase kb, embedding::EmbeddingStore embeddings, uint64_t id,
      const KbGenerationOptions& options = {});

  /// A new generation = this one + `segments` (applied in order).  The
  /// receiver is untouched and keeps serving.
  Result<std::shared_ptr<const KbGeneration>> WithDeltas(
      std::span<const kb::DeltaSegment> segments, uint64_t id,
      const KbGenerationOptions& options = {}) const;

  /// Persists this generation as a fresh TENETKB2 + TENETEMB1 pair — the
  /// merge step that folds applied deltas back into a base snapshot.  Both
  /// writes are atomic, so neither file is ever torn; a crash between the
  /// two leaves the new KB beside the old embeddings, a pair that Load
  /// rejects when the deltas added concepts.
  Status Compact(const std::string& kb_path,
                 const std::string& embeddings_path) const;

  KbGeneration(const KbGeneration&) = delete;
  KbGeneration& operator=(const KbGeneration&) = delete;

  uint64_t id() const { return id_; }
  /// The read path over kb() + embeddings() that the linker consumes.
  const kb::KbView& view() const { return *view_; }
  const kb::KnowledgeBase& kb() const { return kb_; }
  const embedding::EmbeddingStore& embeddings() const { return embeddings_; }
  const text::Gazetteer& gazetteer() const { return gazetteer_; }
  const baselines::TenetLinker& linker() const { return *linker_; }
  /// Cumulative apply stats across every delta folded into this generation
  /// (all zero for a pure snapshot).
  const kb::DeltaApplyStats& delta_stats() const { return delta_stats_; }

 private:
  KbGeneration(kb::KnowledgeBase kb, embedding::EmbeddingStore embeddings,
               uint64_t id, kb::DeltaApplyStats delta_stats,
               const KbGenerationOptions& options);

  // The one factory behind Load, FromSubstrate and WithDeltas.
  static Result<std::shared_ptr<const KbGeneration>> Create(
      kb::KnowledgeBase kb, embedding::EmbeddingStore embeddings, uint64_t id,
      kb::DeltaApplyStats delta_stats, const KbGenerationOptions& options);

  const uint64_t id_;
  kb::KnowledgeBase kb_;
  embedding::EmbeddingStore embeddings_;
  // Shared with the linker, which holds it for its whole lifetime.
  std::shared_ptr<const kb::KbView> view_;
  text::Gazetteer gazetteer_;
  kb::DeltaApplyStats delta_stats_;
  std::unique_ptr<baselines::TenetLinker> linker_;
};

}  // namespace serving
}  // namespace tenet

#endif  // TENET_SERVING_KB_GENERATION_H_
