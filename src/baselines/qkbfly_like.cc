#include "baselines/qkbfly_like.h"

#include <algorithm>

#include "common/timer.h"
#include "text/extraction.h"

namespace tenet {
namespace baselines {

Result<core::LinkingResult> QkbflyLike::LinkDocument(
    std::string_view document_text,
    const core::LinkContext& context) const {
  WallTimer timer;
  text::Extractor extractor(substrate_.gazetteer);
  text::ExtractionResult extraction =
      extractor.ExtractFromText(document_text);
  double extract_ms = timer.ElapsedMillis();
  Result<core::LinkingResult> result = LinkMentionSet(
      BuildCoarseMentionSet(extraction, substrate_.gazetteer), context);
  if (result.ok()) result->timings.extract_ms = extract_ms;
  return result;
}

Result<core::LinkingResult> QkbflyLike::LinkMentionSet(
    core::MentionSet mentions,
    const core::LinkContext& context) const {
  WallTimer timer;
  std::shared_ptr<const kb::KbView> view = ResolveView(substrate_);
  core::CoherenceGraph cg =
      BuildGraph(substrate_, std::move(mentions), context.outcomes);
  double graph_ms = timer.ElapsedMillis();

  timer.Restart();
  const int num_mentions = cg.num_mentions();
  // Noun mentions only; relations are not linked by QKBfly.
  std::vector<int> noun_mentions;
  for (int m = 0; m < num_mentions; ++m) {
    if (cg.mentions().mention(m).is_noun()) noun_mentions.push_back(m);
  }

  std::vector<int> current(num_mentions, -1);
  for (int m : noun_mentions) current[m] = TopPriorNode(cg, m);

  // Mean cosine of `node` against the current concepts of the other
  // mentions (the global density objective).
  auto density = [&](int node, int self) {
    double sum = 0.0;
    int count = 0;
    for (int other : noun_mentions) {
      if (other == self || current[other] < 0) continue;
      sum += view->Cosine(cg.concept_node(node).ref,
                          cg.concept_node(current[other]).ref,
                          context.outcomes);
      ++count;
    }
    return count == 0 ? 0.0 : sum / count;
  };

  for (int iter = 0; iter < options_.iterations; ++iter) {
    for (int m : noun_mentions) {
      const std::vector<int>& candidates = cg.ConceptNodesOfMention(m);
      if (candidates.empty()) continue;
      int best = -1;
      double best_d = -2.0;
      for (int node : candidates) {
        // Density with a small prior tie-break.
        double d = density(node, m) + 0.05 * cg.concept_node(node).prior;
        if (d > best_d) {
          best_d = d;
          best = node;
        }
      }
      current[m] = best;
    }
  }

  // Global admission (the failure mode of dense coherence on documents
  // with isolated concepts, Fig. 6(c)): a concept survives only when it is
  // embedded densely enough AND — QKBfly constructs its KB on the fly from
  // KB subgraphs — shares a direct fact with another selected concept.
  // Sparse-but-correct concepts are dropped together with the genuinely
  // wrong ones, which is why QKBfly reports few entities (low recall).
  auto fact_supported = [&](int m) {
    if (!options_.require_fact_support) return true;
    if (!cg.concept_node(current[m]).ref.is_entity()) return false;
    kb::EntityId self = cg.concept_node(current[m]).ref.id;
    for (int32_t fact_id : view->FactsOfEntity(self)) {
      const kb::Triple& t = view->fact(fact_id);
      if (!t.object_is_entity) continue;
      kb::EntityId other = t.subject == self ? t.object_entity : t.subject;
      for (int n : noun_mentions) {
        if (n == m || current[n] < 0) continue;
        const kb::ConceptRef& ref = cg.concept_node(current[n]).ref;
        if (ref.is_entity() && ref.id == other) return true;  // vouched
      }
    }
    return false;
  };
  std::unordered_map<int, int> chosen;
  std::vector<int> isolated;
  for (int m : noun_mentions) {
    if (current[m] < 0) {
      isolated.push_back(m);
      continue;
    }
    if (density(current[m], m) < options_.density_floor ||
        !fact_supported(m)) {
      isolated.push_back(m);
      continue;
    }
    chosen.emplace(m, current[m]);
  }
  core::LinkingResult result = AssembleResult(cg, chosen, isolated);
  result.timings.graph_ms = graph_ms;
  result.timings.disambiguate_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace baselines
}  // namespace tenet
