#include "baselines/falcon_like.h"

#include "common/timer.h"
#include "text/extraction.h"

namespace tenet {
namespace baselines {

Result<core::LinkingResult> FalconLike::LinkDocument(
    std::string_view document_text,
    const core::LinkContext& context) const {
  WallTimer timer;
  text::Extractor extractor(substrate_.gazetteer);
  text::ExtractionResult extraction =
      extractor.ExtractFromText(document_text);
  double extract_ms = timer.ElapsedMillis();
  core::MentionSet mentions =
      BuildShortOnlyMentionSet(extraction, substrate_.gazetteer);
  // Falcon is purely morphology-driven: it consults no NER type system, so
  // candidates are drawn across all entity types.
  for (core::Mention& mention : mentions.mentions) {
    mention.type = std::nullopt;
  }
  Result<core::LinkingResult> result =
      LinkMentionSet(std::move(mentions), context);
  if (result.ok()) result->timings.extract_ms = extract_ms;
  return result;
}

Result<core::LinkingResult> FalconLike::LinkMentionSet(
    core::MentionSet mentions,
    const core::LinkContext& context) const {
  WallTimer timer;
  core::CoherenceGraph cg =
      BuildGraph(substrate_, std::move(mentions), context.outcomes);
  double graph_ms = timer.ElapsedMillis();

  timer.Restart();
  std::unordered_map<int, int> chosen;
  for (int m = 0; m < cg.num_mentions(); ++m) {
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
