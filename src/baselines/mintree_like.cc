#include "baselines/mintree_like.h"

#include <algorithm>
#include <unordered_set>

#include "common/timer.h"
#include "text/extraction.h"

namespace tenet {
namespace baselines {

Result<core::LinkingResult> MintreeLike::LinkDocument(
    std::string_view document_text,
    const core::LinkContext& context) const {
  WallTimer timer;
  // The paper feeds MINTREE with TENET's extraction (Sec. 6.1); the short
  // mentions are its input mention set.
  text::Extractor extractor(substrate_.gazetteer);
  text::ExtractionResult extraction =
      extractor.ExtractFromText(document_text);
  double extract_ms = timer.ElapsedMillis();
  Result<core::LinkingResult> result = LinkMentionSet(
      BuildShortOnlyMentionSet(extraction, substrate_.gazetteer), context);
  if (result.ok()) result->timings.extract_ms = extract_ms;
  return result;
}

Result<core::LinkingResult> MintreeLike::LinkMentionSet(
    core::MentionSet mentions,
    const core::LinkContext& context) const {
  WallTimer timer;
  std::shared_ptr<const kb::KbView> view = ResolveView(substrate_);
  core::CoherenceGraph cg =
      BuildGraph(substrate_, std::move(mentions), context.outcomes);
  double graph_ms = timer.ElapsedMillis();

  timer.Restart();
  const int num_mentions = cg.num_mentions();
  std::vector<int> noun_mentions;
  for (int m = 0; m < num_mentions; ++m) {
    if (cg.mentions().mention(m).is_noun()) noun_mentions.push_back(m);
  }

  // Pair-linking sweep over all cross-mention candidate pairs.
  struct Pair {
    int u;
    int v;
    double weight;
  };
  std::vector<Pair> pairs;
  for (size_t i = 0; i < noun_mentions.size(); ++i) {
    for (int u : cg.ConceptNodesOfMention(noun_mentions[i])) {
      for (size_t j = i + 1; j < noun_mentions.size(); ++j) {
        for (int v : cg.ConceptNodesOfMention(noun_mentions[j])) {
          double relatedness =
              view->Cosine(cg.concept_node(u).ref, cg.concept_node(v).ref,
                           context.outcomes);
          // Pair weight: the MST objective is dominated by the semantic
          // distance; local confidence only breaks ties (Phan et al.'s
          // tree weight is built from relatedness edges).
          double weight = (1.0 - relatedness) +
                          0.15 * (1.0 - cg.concept_node(u).prior) +
                          0.15 * (1.0 - cg.concept_node(v).prior);
          pairs.push_back(Pair{u, v, weight});
        }
      }
    }
  }
  std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
    if (a.weight != b.weight) return a.weight < b.weight;
    if (a.u != b.u) return a.u < b.u;
    return a.v < b.v;
  });

  std::unordered_map<int, int> chosen;
  std::unordered_set<int> chosen_nodes;
  for (const Pair& pair : pairs) {
    int mu = cg.MentionOfNode(pair.u);
    int mv = cg.MentionOfNode(pair.v);
    bool u_linked = chosen.count(mu) > 0;
    bool v_linked = chosen.count(mv) > 0;
    if (!u_linked && !v_linked) {
      chosen.emplace(mu, pair.u);
      chosen.emplace(mv, pair.v);
      chosen_nodes.insert(pair.u);
      chosen_nodes.insert(pair.v);
    } else if (chosen_nodes.count(pair.u) > 0 && !v_linked) {
      chosen.emplace(mv, pair.v);
      chosen_nodes.insert(pair.v);
    } else if (chosen_nodes.count(pair.v) > 0 && !u_linked) {
      chosen.emplace(mu, pair.u);
      chosen_nodes.insert(pair.u);
    }
    if (chosen.size() == noun_mentions.size()) break;
  }
  // Force-link leftovers (MINTREE cannot abstain).
  for (int m : noun_mentions) {
    if (chosen.count(m) > 0) continue;
    int node = TopPriorNode(cg, m);
    if (node >= 0) chosen.emplace(m, node);
  }
  core::LinkingResult result = AssembleResult(cg, chosen, {});
  result.timings.graph_ms = graph_ms;
  result.timings.disambiguate_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace baselines
}  // namespace tenet
