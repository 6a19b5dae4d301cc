#include "baselines/earl_like.h"

#include <limits>

#include "common/timer.h"
#include "text/extraction.h"

namespace tenet {
namespace baselines {

Result<core::LinkingResult> EarlLike::LinkDocument(
    std::string_view document_text,
    const core::LinkContext& context) const {
  WallTimer timer;
  text::Extractor extractor(substrate_.gazetteer);
  text::ExtractionResult extraction =
      extractor.ExtractFromText(document_text);
  double extract_ms = timer.ElapsedMillis();
  Result<core::LinkingResult> result = LinkMentionSet(
      BuildShortOnlyMentionSet(extraction, substrate_.gazetteer), context);
  if (result.ok()) result->timings.extract_ms = extract_ms;
  return result;
}

Result<core::LinkingResult> EarlLike::LinkMentionSet(
    core::MentionSet mentions,
    const core::LinkContext& context) const {
  WallTimer timer;
  core::CoherenceGraph cg =
      BuildGraph(substrate_, std::move(mentions), context.outcomes);
  double graph_ms = timer.ElapsedMillis();

  timer.Restart();
  KbGraphRelatedness relatedness(ResolveView(substrate_));
  std::unordered_map<int, int> chosen;
  int previous_node = -1;
  for (int m = 0; m < cg.num_mentions(); ++m) {
    const std::vector<int>& candidates = cg.ConceptNodesOfMention(m);
    if (candidates.empty()) continue;
    int best = -1;
    double best_cost = std::numeric_limits<double>::infinity();
    for (int node : candidates) {
      const core::CoherenceGraph::ConceptNode& cn = cg.concept_node(node);
      double local = 1.0 - cn.prior;
      double hop = 0.0;
      if (previous_node >= 0) {
        // EARL measures connection density in hops over the KB graph,
        // probed on demand (it has no embedding index).
        hop = 1.0 - relatedness.Relatedness(
                        cg.concept_node(previous_node).ref, cn.ref);
      }
      // Connection-density objective: hops dominate, priors break ties.
      double cost = 0.7 * hop + 0.3 * local;
      if (cost < best_cost) {
        best_cost = cost;
        best = node;
      }
    }
    chosen.emplace(m, best);
    previous_node = best;
  }
  core::LinkingResult result = AssembleResult(cg, chosen, {});
  result.timings.graph_ms = graph_ms;
  result.timings.disambiguate_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace baselines
}  // namespace tenet
