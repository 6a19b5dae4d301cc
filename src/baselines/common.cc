#include "baselines/common.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "common/string_util.h"

namespace tenet {
namespace baselines {
namespace {

void SortUnique(std::vector<int>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

// Appends a singleton-group noun mention, canonicalizing repeated surfaces.
void AddNounMention(core::MentionSet& set,
                    std::unordered_map<std::string, int>& by_surface,
                    const std::string& surface,
                    std::optional<kb::EntityType> type, int sentence) {
  std::string key = AsciiToLower(surface);
  auto it = by_surface.find(key);
  if (it != by_surface.end()) {
    core::Mention& existing = set.mentions[it->second];
    existing.sentences.push_back(sentence);
    SortUnique(existing.sentences);
    return;
  }
  core::Mention mention;
  mention.kind = core::Mention::Kind::kNoun;
  mention.surface = surface;
  mention.type = type;
  mention.sentences = {sentence};
  mention.group = set.num_groups();
  int id = set.num_mentions();
  set.mentions.push_back(std::move(mention));
  by_surface.emplace(std::move(key), id);
  core::MentionGroup group;
  group.members = {id};
  group.short_mentions = {id};
  group.canopies = {core::Canopy{{id}}};
  set.groups.push_back(std::move(group));
}

void AddRelationalMentions(core::MentionSet& set,
                           const text::ExtractionResult& extraction) {
  std::unordered_map<std::string, int> by_lemma;
  for (const text::ExtractedRelation& rel : extraction.relations) {
    auto it = by_lemma.find(rel.lemma);
    if (it != by_lemma.end()) {
      core::Mention& existing = set.mentions[it->second];
      existing.sentences.push_back(rel.sentence);
      SortUnique(existing.sentences);
      continue;
    }
    core::Mention mention;
    mention.kind = core::Mention::Kind::kRelational;
    mention.surface = rel.lemma;
    mention.sentences = {rel.sentence};
    mention.group = set.num_groups();
    int id = set.num_mentions();
    set.mentions.push_back(std::move(mention));
    by_lemma.emplace(rel.lemma, id);
    core::MentionGroup group;
    group.members = {id};
    group.short_mentions = {id};
    group.canopies = {core::Canopy{{id}}};
    set.groups.push_back(std::move(group));
  }
}

}  // namespace

core::MentionSet BuildShortOnlyMentionSet(
    const text::ExtractionResult& extraction,
    const text::Gazetteer* gazetteer) {
  (void)gazetteer;
  core::MentionSet set;
  std::unordered_map<std::string, int> by_surface;
  for (const text::ShortMention& sm : extraction.mentions) {
    AddNounMention(set, by_surface, sm.surface, sm.type, sm.sentence);
  }
  AddRelationalMentions(set, extraction);
  return set;
}

core::MentionSet BuildCoarseMentionSet(
    const text::ExtractionResult& extraction,
    const text::Gazetteer* gazetteer) {
  core::MentionSet set;
  std::unordered_map<std::string, int> by_surface;

  const int num_short = static_cast<int>(extraction.mentions.size());
  int begin = 0;
  while (begin < num_short) {
    int end = begin;
    while (end + 1 < num_short && extraction.link_after[end].has_value()) {
      ++end;
    }
    if (end == begin) {
      const text::ShortMention& sm = extraction.mentions[begin];
      AddNounMention(set, by_surface, sm.surface, sm.type, sm.sentence);
    } else {
      // Maximal Open-IE phrase: merge the whole run unconditionally.
      std::string surface = extraction.mentions[begin].surface;
      for (int i = begin; i < end; ++i) {
        const text::Connector& conn = *extraction.link_after[i];
        if (conn.kind == text::ConnectorKind::kPunctuation) {
          surface += conn.joining_text + " " +
                     extraction.mentions[i + 1].surface;
        } else {
          surface += " " + conn.joining_text + " " +
                     extraction.mentions[i + 1].surface;
        }
      }
      AddNounMention(set, by_surface, surface,
                     gazetteer->LookupType(surface),
                     extraction.mentions[begin].sentence);
    }
    begin = end + 1;
  }
  AddRelationalMentions(set, extraction);
  return set;
}

std::shared_ptr<const kb::KbView> ResolveView(
    const BaselineSubstrate& substrate) {
  if (substrate.view != nullptr) return substrate.view;
  return std::make_shared<kb::KbView>(substrate.kb, substrate.embeddings);
}

core::CoherenceGraph BuildGraph(const BaselineSubstrate& substrate,
                                core::MentionSet mentions,
                                DependencyOutcomes* outcomes) {
  core::CoherenceGraphBuilder builder(ResolveView(substrate),
                                      substrate.graph_options);
  return builder.Build(std::move(mentions), outcomes);
}

core::LinkingResult AssembleResult(
    const core::CoherenceGraph& cg,
    const std::unordered_map<int, int>& chosen,
    const std::vector<int>& isolated) {
  core::LinkingResult result;
  for (const auto& [mention_id, node] : chosen) {
    const core::CoherenceGraph::ConceptNode& cn = cg.concept_node(node);
    core::LinkedConcept link;
    link.mention_id = mention_id;
    link.surface = cg.mentions().mention(mention_id).surface;
    link.kind = cg.mentions().mention(mention_id).kind;
    link.concept_ref = cn.ref;
    link.prior = cn.prior;
    result.links.push_back(std::move(link));
    result.selected_mentions.push_back(mention_id);
  }
  std::sort(result.links.begin(), result.links.end(),
            [](const core::LinkedConcept& a, const core::LinkedConcept& b) {
              return a.mention_id < b.mention_id;
            });
  result.isolated_mentions = isolated;
  std::sort(result.isolated_mentions.begin(),
            result.isolated_mentions.end());
  for (int m : result.isolated_mentions) {
    result.selected_mentions.push_back(m);
  }
  std::sort(result.selected_mentions.begin(),
            result.selected_mentions.end());
  result.mentions = cg.mentions();
  return result;
}

namespace {

// Recomputed per call on purpose: this models the per-query KB probing
// cost of systems without a relatedness index.
std::unordered_set<kb::EntityId> KbNeighborhood(const kb::KbView& view,
                                                kb::ConceptRef ref) {
  std::unordered_set<kb::EntityId> out;
  if (ref.is_entity()) {
    for (kb::EntityId n : view.NeighborEntities(ref.id)) out.insert(n);
  } else {
    for (int32_t fact_id : view.FactsOfPredicate(ref.id)) {
      const kb::Triple& t = view.fact(fact_id);
      out.insert(t.subject);
      if (t.object_is_entity) out.insert(t.object_entity);
    }
  }
  return out;
}

}  // namespace

double KbGraphRelatedness::Relatedness(kb::ConceptRef a,
                                       kb::ConceptRef b) const {
  std::unordered_set<kb::EntityId> na = KbNeighborhood(*view_, a);
  std::unordered_set<kb::EntityId> nb = KbNeighborhood(*view_, b);
  if (a.is_entity() && nb.count(a.id) > 0) return 1.0;
  if (b.is_entity() && na.count(b.id) > 0) return 1.0;
  if (na.empty() || nb.empty()) return 0.0;
  const std::unordered_set<kb::EntityId>& small =
      na.size() <= nb.size() ? na : nb;
  const std::unordered_set<kb::EntityId>& large =
      na.size() <= nb.size() ? nb : na;
  int overlap = 0;
  for (kb::EntityId e : small) overlap += large.count(e) > 0 ? 1 : 0;
  return static_cast<double>(overlap) / static_cast<double>(small.size());
}

int TopPriorNode(const core::CoherenceGraph& cg, int mention) {
  int best = -1;
  double best_prior = -1.0;
  for (int node : cg.ConceptNodesOfMention(mention)) {
    double prior = cg.concept_node(node).prior;
    if (prior > best_prior) {
      best_prior = prior;
      best = node;
    }
  }
  return best;
}

}  // namespace baselines
}  // namespace tenet
