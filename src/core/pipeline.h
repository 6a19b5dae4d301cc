#ifndef TENET_CORE_PIPELINE_H_
#define TENET_CORE_PIPELINE_H_

#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "core/canopy.h"
#include "core/link_context.h"
#include "core/coherence_graph.h"
#include "core/disambiguator.h"
#include "core/mention.h"
#include "core/tree_cover.h"
#include "embedding/embedding_store.h"
#include "kb/knowledge_base.h"
#include "text/extraction.h"
#include "text/gazetteer.h"

namespace tenet {
namespace core {

// Knobs of the pair-link rung (DESIGN.md §16) — the approximate middle of
// the degradation ladder, between the full tree-cover pipeline and
// per-canopy prior-only disambiguation.  Instead of solving the global
// coherence objective, the rung greedily confirms the single most
// confident mention pair at a time (core/pair_link.h).
struct PairLinkOptions {
  /// Forces every document down the pair-link rung — the frontier
  /// harness's "pair-link system" configuration (tenet_cli eval
  /// --frontier).  Overrides the deadline machinery but still honours the
  /// request budget inside the rung.
  bool serve_always = false;
};

// End-to-end configuration of TENET.
struct TenetOptions {
  CoherenceGraphOptions graph;
  CanopyOptions canopy;
  DisambiguatorOptions disambiguator;
  /// Tree-cost bound B = bound_factor * |M| (the paper sets B to |M|).
  double bound_factor = 1.0;
  /// On a failure warning (B < B*), B grows per this policy (the paper's
  /// doubling, capped).  Replaces the former ad-hoc `max_bound_retries`.
  RetryPolicy bound_retry;
  /// Per-document wall-clock budget in milliseconds, measured from the
  /// Link* call.  Infinite (the default) disables the deadline.  An
  /// explicit Deadline argument to Link* overrides this.
  double deadline_ms = std::numeric_limits<double>::infinity();
  /// When true (the default), deadline expiry, bound-retry exhaustion or
  /// a cover fault degrades down the ladder (pair-link while budget
  /// remains, else prior-only) instead of failing the document.  When
  /// false those conditions surface as kDeadlineExceeded / the solver's
  /// error.
  bool degrade_to_prior = true;
  /// Hostile-input guardrails applied by LinkDocument before any linking
  /// work (DESIGN.md §13).  The defaults never fire on clean corpora; the
  /// candidate cap additionally clamps
  /// graph.max_candidates_per_mention at construction.
  text::TextLimits limits;
  /// The pair-link rung of the degradation ladder (DESIGN.md §16).
  PairLinkOptions pair_link;
};

// How a LinkingResult was produced — the rung of the degradation ladder
// that served the document.  Attached to every result so the evaluation
// harness can report degraded-vs-full counts.
struct DegradationInfo {
  enum class Mode {
    /// The full tree-cover pipeline ran to completion.
    kFull = 0,
    /// Per-canopy prior-only disambiguation (baseline-quality answer):
    /// each mention group keeps its most-confident canopy by candidate
    /// priors, and every mention links to its top-prior candidate.
    kPriorOnly = 1,
    /// Greedy pair-linking (DESIGN.md §16): the most confident mention
    /// pair is confirmed at a time, scored by priors + embedding
    /// similarity — near-full quality without the tree-cover solve.
    kPairLink = 2,
  };

  Mode mode = Mode::kFull;
  /// Human-readable cause, e.g. "deadline expired before the coherence
  /// stage" or the tree-cover solver's terminal status.  Empty when full.
  std::string reason;
  /// Number of pipeline stages (graph, cover, disambiguation) that were
  /// skipped or replaced by the fallback: 0 for a full run, up to 3 when
  /// the budget was exhausted before the coherence stage.
  int stages_degraded = 0;
  /// Mention pairs the pair-link rung confirmed greedily (kPairLink only;
  /// 0 otherwise).  Diagnostic: a deadline-cut sweep confirms fewer pairs
  /// and tops up the rest from priors.
  int pairs_confirmed = 0;

  bool degraded() const { return mode != Mode::kFull; }
};

/// Canonical lower_snake_case name of a degradation mode ("full",
/// "prior_only", "pair_link") for logs and harness tables.
std::string_view DegradationModeToString(DegradationInfo::Mode mode);

// One linked mention of the final output.
struct LinkedConcept {
  int mention_id = -1;
  std::string surface;
  Mention::Kind kind = Mention::Kind::kNoun;
  kb::ConceptRef concept_ref;
  /// Prior P(c|m) of the chosen candidate (diagnostic).
  double prior = 0.0;
};

// Stage timings in milliseconds (Figure 7).
struct PipelineTimings {
  double extract_ms = 0.0;
  double graph_ms = 0.0;
  double cover_ms = 0.0;
  double disambiguate_ms = 0.0;

  double TotalMs() const {
    return extract_ms + graph_ms + cover_ms + disambiguate_ms;
  }
};

// Full output of linking one document.
struct LinkingResult {
  /// The mention universe considered (short mentions, long-text variants,
  /// relational phrases).
  MentionSet mentions;
  /// Mentions linked to a KB concept.
  std::vector<LinkedConcept> links;
  /// Selected mentions reported as isolated / emerging concepts (no
  /// linkable counterpart in the KB).
  std::vector<int> isolated_mentions;
  /// Mention-detection output: ids of linked + isolated mentions.
  std::vector<int> selected_mentions;
  /// The bound B that produced the cover (0 when the cover stage was
  /// degraded away).
  double used_bound = 0.0;
  TreeCoverStats cover_stats;
  PipelineTimings timings;
  /// Which rung of the degradation ladder produced this result.
  DegradationInfo degradation;
};

// TENET: tree-cover based joint entity and relation linking.
//
// Example:
//   TenetPipeline tenet(&world.kb, &embeddings, &world.gazetteer);
//   auto result = tenet.LinkDocument("Michael Jordan studies ...");
//   for (const LinkedConcept& link : result->links) ...
//
// Thread safety: a constructed pipeline is immutable — options and the
// per-stage components are fixed at construction, the KB / embedding /
// gazetteer substrate is read-only, and every Link* call works on its own
// stack state.  Concurrent Link* calls on one pipeline are therefore safe
// (the serving layer's workers share a single instance); the substrate
// must simply not be mutated while linking is in flight.
class TenetPipeline {
 public:
  /// Links against the KB substrate behind `view`.  The view is
  /// shared-owned; `gazetteer` must be non-null and outlive the pipeline.
  TenetPipeline(std::shared_ptr<const kb::KbView> view,
                const text::Gazetteer* gazetteer, TenetOptions options = {});

  /// Convenience: wraps `kb` + `embeddings` in a KbView.  All pointers
  /// must be non-null, finalized, and outlive the pipeline.
  TenetPipeline(const kb::KnowledgeBase* kb,
                const embedding::EmbeddingStore* embeddings,
                const text::Gazetteer* gazetteer, TenetOptions options = {});

  /// Runs the whole stack: extraction -> mention set -> coherence graph ->
  /// tree cover -> disambiguation.  Per-request knobs travel in the
  /// LinkContext: a default-constructed context starts the budget
  /// configured by TenetOptions::deadline_ms at call time; a context
  /// deadline overrides it; a context trace records the stage spans,
  /// cover retries and degradation rungs.
  ///
  /// Degradation ladder (when options().degrade_to_prior): the full
  /// tree-cover pipeline is attempted first; when the cover is
  /// unavailable (solver fault, retry exhaustion) with budget remaining,
  /// the document is served by the greedy pair-link rung; when the budget
  /// itself is gone, by per-canopy prior-only disambiguation.  Forcing
  /// (options().pair_link.serve_always) or a context capped at pair-link
  /// takes the pair-link rung before the graph stage.  Either way the
  /// result's DegradationInfo records the mode, cause, and how many
  /// stages were degraded.  A degraded answer is still ok() — graceful
  /// degradation is an answer, not an error.
  Result<LinkingResult> LinkDocument(std::string_view document_text,
                                     const LinkContext& context = {}) const;

  /// Starts from a ready mention universe (used by the disambiguation-only
  /// evaluation, where gold mentions are given as input).
  Result<LinkingResult> LinkMentionSet(MentionSet mentions,
                                       const LinkContext& context = {}) const;

  const TenetOptions& options() const { return options_; }
  const kb::KbView& view() const { return *view_; }

 private:
  /// The deadline implied by options().deadline_ms, started now.
  Deadline DefaultDeadline() const;

  /// The real pipeline body.  `timings` carries stage timings measured
  /// before the mention set existed (LinkDocument's extraction stage), so
  /// every completion path reports the document's full latency.
  Result<LinkingResult> LinkMentionSetWithTimings(MentionSet mentions,
                                                  const LinkContext& context,
                                                  PipelineTimings timings) const;

  /// Serves the document from a fallback rung: `mode` is kPriorOnly or
  /// kPairLink, and prior-only is the pair-link rung with the sweep
  /// skipped.  Each mention's candidates are fetched once: from the KB
  /// (one lookup per mention) when `cg` is null, i.e. before the graph
  /// exists, else from `cg`'s concept nodes.  Both rungs keep each
  /// group's most confident reading by candidate priors; pair-link then
  /// runs SweepPairs over its noun mentions until `deadline`, scoring
  /// pairs by KbView::Cosine, or by 1 - EdgeWeight when `cg` is set (so
  /// that path touches neither the KB nor the embeddings).  Every mention
  /// the sweep does not confirm links to its top-prior candidate.
  Result<LinkingResult> Degrade(DegradationInfo::Mode mode,
                                std::string reason, int stages_degraded,
                                MentionSet mentions, const CoherenceGraph* cg,
                                PipelineTimings timings,
                                const LinkContext& context,
                                const Deadline& deadline) const;

  std::shared_ptr<const kb::KbView> view_;
  const text::Gazetteer* gazetteer_;
  TenetOptions options_;
  CoherenceGraphBuilder graph_builder_;
  TreeCoverSolver solver_;
  Disambiguator disambiguator_;
};

}  // namespace core
}  // namespace tenet

#endif  // TENET_CORE_PIPELINE_H_
