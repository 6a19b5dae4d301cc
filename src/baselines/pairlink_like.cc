#include "baselines/pairlink_like.h"

#include <unordered_map>
#include <vector>

#include "common/deadline.h"
#include "common/timer.h"
#include "core/pair_link.h"
#include "text/extraction.h"

namespace tenet {
namespace baselines {

Result<core::LinkingResult> PairlinkLike::LinkDocument(
    std::string_view document_text,
    const core::LinkContext& context) const {
  WallTimer timer;
  // Like MINTREE, Pair-Linking consumes TENET's extraction; the short
  // mentions are its input mention set (no canopy-based joint selection).
  text::Extractor extractor(substrate_.gazetteer);
  text::ExtractionResult extraction =
      extractor.ExtractFromText(document_text);
  double extract_ms = timer.ElapsedMillis();
  Result<core::LinkingResult> result = LinkMentionSet(
      BuildShortOnlyMentionSet(extraction, substrate_.gazetteer), context);
  if (result.ok()) result->timings.extract_ms = extract_ms;
  return result;
}

Result<core::LinkingResult> PairlinkLike::LinkMentionSet(
    core::MentionSet mentions,
    const core::LinkContext& context) const {
  WallTimer timer;
  std::shared_ptr<const kb::KbView> view = ResolveView(substrate_);
  core::CoherenceGraph cg =
      BuildGraph(substrate_, std::move(mentions), context.outcomes);
  double graph_ms = timer.ElapsedMillis();

  timer.Restart();
  // The pair-link rung's sweep over every noun mention, scored by exact
  // cosine; leftovers are force-linked to their top-prior candidate
  // (Pair-Linking cannot abstain).
  const std::vector<std::vector<core::PairLinkCandidate>> candidates =
      core::GraphCandidates(cg);
  std::vector<int> nouns;
  std::vector<int> pick(cg.num_mentions(), -1);
  for (int m = 0; m < cg.num_mentions(); ++m) {
    if (!cg.mentions().mention(m).is_noun()) continue;
    nouns.push_back(m);
    pick[m] = core::TopPriorCandidate(candidates[m]);
  }
  core::SweepPairs(
      nouns, candidates,
      [&view, &context](const core::PairLinkCandidate& u,
                        const core::PairLinkCandidate& v) {
        return view->Cosine(u.ref, v.ref, context.outcomes);
      },
      Deadline::Infinite(), &pick);
  std::unordered_map<int, int> chosen;
  for (int m : nouns) {
    if (pick[m] >= 0) chosen.emplace(m, candidates[m][pick[m]].node);
  }
  core::LinkingResult result = AssembleResult(cg, chosen, {});
  result.timings.graph_ms = graph_ms;
  result.timings.disambiguate_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace baselines
}  // namespace tenet
