#ifndef TENET_BASELINES_COMMON_H_
#define TENET_BASELINES_COMMON_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/coherence_graph.h"
#include "core/pipeline.h"
#include "embedding/embedding_store.h"
#include "kb/kb_view.h"
#include "kb/knowledge_base.h"
#include "text/extraction.h"
#include "text/gazetteer.h"

namespace tenet {
namespace baselines {

// Shared substrate handles of all baseline linkers.  Either populate the
// `kb` + `embeddings` pair or set `view` to share an existing KbView (as a
// KbGeneration does); every consumer goes through ResolveView.
struct BaselineSubstrate {
  const kb::KnowledgeBase* kb = nullptr;
  const embedding::EmbeddingStore* embeddings = nullptr;
  const text::Gazetteer* gazetteer = nullptr;
  core::CoherenceGraphOptions graph_options;
  /// When set, wins over `kb`/`embeddings` (which may then be null).
  std::shared_ptr<const kb::KbView> view;
};

/// The substrate's KbView: `substrate.view` when set, else a KbView
/// wrapping the kb/embeddings pair (which must then be non-null and
/// outlive the returned view).
std::shared_ptr<const kb::KbView> ResolveView(
    const BaselineSubstrate& substrate);

// Mention-universe policies of the baselines (none performs canopy-based
// joint selection — that is TENET's contribution):
//
/// Every short-text mention is its own singleton group; long-text variants
/// are never formed (Falcon, EARL, MINTREE).
core::MentionSet BuildShortOnlyMentionSet(
    const text::ExtractionResult& extraction,
    const text::Gazetteer* gazetteer);

/// Open-IE-style coarse chunking (QKBfly, KBPearl): both systems take
/// their noun phrases from Open IE tools, which emit maximal phrases — a
/// feature-linked run is always merged into one long mention, whether or
/// not the KB knows the merged surface.  This reproduces the "less
/// informative noun phrases" behaviour the paper blames for their
/// precision loss around isolated concepts (Sec. 6.2, Fig. 6(c)).
core::MentionSet BuildCoarseMentionSet(
    const text::ExtractionResult& extraction,
    const text::Gazetteer* gazetteer);

/// Builds the coherence graph over `mentions`, recording its dependency
/// operations in `outcomes` when non-null.
core::CoherenceGraph BuildGraph(const BaselineSubstrate& substrate,
                                core::MentionSet mentions,
                                DependencyOutcomes* outcomes);

/// Assembles a LinkingResult from per-mention decisions.  `chosen` maps
/// mention id -> concept node id of `cg`; `isolated` lists mentions the
/// system reports as new concepts.
core::LinkingResult AssembleResult(const core::CoherenceGraph& cg,
                                   const std::unordered_map<int, int>& chosen,
                                   const std::vector<int>& isolated);

/// The concept node with the highest prior for `mention`, or -1.
int TopPriorNode(const core::CoherenceGraph& cg, int mention);

// Semantic relatedness probed from the KB graph on demand (no precomputed
// index): overlap coefficient of the two concepts' entity neighborhoods,
// 1.0 for direct fact partners.  EARL's connection-density objective and
// KBPearl's document graph both consume this; each probe pays O(degree),
// unlike the O(1) lookups into the embedding index TENET and QKBfly use.
class KbGraphRelatedness {
 public:
  explicit KbGraphRelatedness(std::shared_ptr<const kb::KbView> view)
      : view_(std::move(view)) {}

  double Relatedness(kb::ConceptRef a, kb::ConceptRef b) const;

 private:
  std::shared_ptr<const kb::KbView> view_;
};

}  // namespace baselines
}  // namespace tenet

#endif  // TENET_BASELINES_COMMON_H_
