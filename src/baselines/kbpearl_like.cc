#include "baselines/kbpearl_like.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/timer.h"
#include "text/extraction.h"

namespace tenet {
namespace baselines {
Result<core::LinkingResult> KbPearlLike::LinkDocument(
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

Result<core::LinkingResult> KbPearlLike::LinkMentionSet(
    core::MentionSet mentions,
    const core::LinkContext& context) const {
  WallTimer timer;
  core::CoherenceGraph cg =
      BuildGraph(substrate_, std::move(mentions), context.outcomes);
  double graph_ms = timer.ElapsedMillis();

  timer.Restart();
  KbGraphRelatedness kb_relatedness(ResolveView(substrate_));
  const int num_mentions = cg.num_mentions();

  // KBPearl first materializes its document graph: the pairwise KB-graph
  // relatedness of EVERY cross-mention candidate pair, probed from the KB
  // on demand.  This O((|M| k)^2) construction — unlike the O(1) lookups
  // of the pre-computed embedding index TENET and QKBfly use — is what
  // makes KBPearl the most length-sensitive system in Figure 7.
  const int num_concepts = cg.num_concept_nodes();
  std::unordered_map<uint64_t, double> pair_relatedness;
  pair_relatedness.reserve(
      static_cast<size_t>(num_concepts) * num_concepts / 2 + 1);
  for (int i = 0; i < num_concepts; ++i) {
    int u = num_mentions + i;
    for (int j = i + 1; j < num_concepts; ++j) {
      int v = num_mentions + j;
      if (cg.MentionOfNode(u) == cg.MentionOfNode(v)) continue;
      double r = kb_relatedness.Relatedness(cg.concept_node(u).ref,
                                            cg.concept_node(v).ref);
      pair_relatedness.emplace(
          (static_cast<uint64_t>(u) << 32) | static_cast<uint64_t>(v), r);
    }
  }
  auto relatedness_of = [&](int u, int v) {
    if (u > v) std::swap(u, v);
    auto it = pair_relatedness.find((static_cast<uint64_t>(u) << 32) |
                                    static_cast<uint64_t>(v));
    return it == pair_relatedness.end() ? 0.0 : it->second;
  };

  // Current assignment (node id per mention, -1 = none).
  std::vector<int> current(num_mentions, -1);
  for (int m = 0; m < num_mentions; ++m) {
    current[m] = TopPriorNode(cg, m);
  }

  // The near-neighbour attention: the w nearest mentions by document
  // position ("infers the linking of each mention based on a fixed number
  // of other mentions").  The window is FIXED — non-linkable neighbours
  // stay in it and contribute zero relatedness, diluting the confidence on
  // fresh-phrase-heavy documents; this rigidity is exactly the weakness
  // the paper ascribes to fixed attention counts.
  auto neighbors_of = [&](int m) {
    std::vector<int> out;
    for (int delta = 1;
         delta < num_mentions &&
         static_cast<int>(out.size()) < options_.window;
         ++delta) {
      if (m - delta >= 0) out.push_back(m - delta);
      if (static_cast<int>(out.size()) >= options_.window) break;
      if (m + delta < num_mentions) out.push_back(m + delta);
    }
    return out;
  };

  std::vector<double> best_score(num_mentions, 0.0);
  for (int iter = 0; iter < options_.iterations; ++iter) {
    for (int m = 0; m < num_mentions; ++m) {
      const std::vector<int>& candidates = cg.ConceptNodesOfMention(m);
      if (candidates.empty()) continue;
      std::vector<int> neighbors = neighbors_of(m);
      int best = -1;
      double best_s = -1.0;
      for (int node : candidates) {
        const core::CoherenceGraph::ConceptNode& cn = cg.concept_node(node);
        double mean_relatedness = 0.0;
        for (int n : neighbors) {
          if (current[n] >= 0) {
            mean_relatedness += relatedness_of(node, current[n]);
          }
        }
        if (!neighbors.empty()) {
          mean_relatedness /= static_cast<double>(neighbors.size());
        }
        double score =
            cn.prior + options_.relatedness_weight * mean_relatedness;
        if (score > best_s) {
          best_s = score;
          best = node;
        }
      }
      current[m] = best;
      best_score[m] = best_s;
    }
  }

  std::unordered_map<int, int> chosen;
  std::vector<int> isolated;
  for (int m = 0; m < num_mentions; ++m) {
    if (current[m] < 0) {
      isolated.push_back(m);  // no candidates: populated as a new concept
      continue;
    }
    if (best_score[m] < options_.confidence_threshold) {
      isolated.push_back(m);  // low confidence: reported non-linkable
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
