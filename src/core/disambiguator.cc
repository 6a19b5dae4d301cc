#include "core/disambiguator.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.h"

namespace tenet {
namespace core {

DisambiguationResult Disambiguator::Run(const CoherenceGraph& cg,
                                        const TreeCover& cover) const {
  const MentionSet& mentions = cg.mentions();
  DisambiguationResult result;
  result.node_of_mention.assign(cg.num_mentions(), -1);
  result.group_resolved.assign(mentions.num_groups(), false);
  result.winning_canopy.assign(mentions.num_groups(), -1);

  // A canopy normally completes when every member has a recorded concept.
  // A member with no KB candidates never receives one, which would
  // deadlock its canopies; so when a group has NO fully-linkable canopy,
  // canopies are allowed to complete over their linkable subset (e.g.
  // "Brooklyn in April": "April" is non-linkable but "Brooklyn" must still
  // be linked).  When some canopy IS fully linkable (e.g. the merged
  // "Fellow of the AAAS"), the strict rule stands, so partially-linkable
  // readings cannot pre-empt it.  Unlinked members of the winning canopy
  // are reported as isolated concepts by the pipeline.
  auto linkable = [&cg](int mention) {
    return !cg.ConceptNodesOfMention(mention).empty();
  };
  // ---- Collect the distinct edges of the tree cover, sorted ascending ----
  struct CoverEdge {
    int u;
    int v;
    double weight;
    int informativeness;  // tie-break: token length of the touched mentions
    int tree;             // the first tree that holds the edge
  };
  auto mention_tokens = [&mentions, &cg](int node) {
    const std::string& surface =
        mentions.mention(cg.MentionOfNode(node)).surface;
    return 1 + static_cast<int>(
                   std::count(surface.begin(), surface.end(), ' '));
  };
  // Every cover edge in cover order; then each distinct edge once, as it
  // first occurs (a stable sort by endpoint pair keeps cover order within
  // a pair), so its orientation and tree are the first ones.
  std::vector<CoverEdge> edges;
  for (size_t t = 0; t < cover.trees.size(); ++t) {
    for (const graph::Edge& e : cover.trees[t].edges) {
      edges.push_back(CoverEdge{e.u, e.v, e.weight, 0, static_cast<int>(t)});
    }
  }
  auto pair_of = [](const CoverEdge& e) { return std::minmax(e.u, e.v); };
  std::stable_sort(edges.begin(), edges.end(),
                   [&](const CoverEdge& a, const CoverEdge& b) {
                     return pair_of(a) < pair_of(b);
                   });
  edges.erase(std::unique(edges.begin(), edges.end(),
                          [&](const CoverEdge& a, const CoverEdge& b) {
                            return pair_of(a) == pair_of(b);
                          }),
              edges.end());
  for (CoverEdge& e : edges) {
    e.informativeness = mention_tokens(e.u) + mention_tokens(e.v);
  }
  // Ascending semantic distance; among equally confident edges the more
  // informative (longer) mentions win, so an unambiguous long-text variant
  // ("Fellow of the AAAS") pre-empts its equally unambiguous fragments —
  // the preference Sec. 1 motivates.  The ablation without the global
  // order sweeps each tree separately (sorted within), in mention order;
  // Sec. 5.2 argues this biases results by processing order.
  auto edge_order = [this](const CoverEdge& a, const CoverEdge& b) {
    if (!options_.global_kruskal_order && a.tree != b.tree) {
      return a.tree < b.tree;
    }
    if (a.weight != b.weight) return a.weight < b.weight;
    if (options_.informative_tie_break &&
        a.informativeness != b.informativeness) {
      return a.informativeness > b.informativeness;
    }
    if (a.u != b.u) return a.u < b.u;
    return a.v < b.v;
  };
  std::sort(edges.begin(), edges.end(), edge_order);

  // ---- Canopy bookkeeping (the mapping M of Algorithm 5) -----------------
  // The canopies of all groups are numbered in order, group g's from
  // canopy_begin[g].  Member p of canopy c records its concept node in
  // recorded[slot_begin[c] + p] (-1 until then); the first (lightest-edge)
  // recording per mention wins.  Canopy c completes once num_recorded[c]
  // reaches required[c]: every member under the strict rule above, else
  // its linkable members.
  auto all_linkable = [&linkable](const Canopy& canopy) {
    return std::all_of(canopy.mentions.begin(), canopy.mentions.end(),
                       linkable);
  };
  const int num_groups = mentions.num_groups();
  std::vector<int> canopy_begin = {0};
  std::vector<int> slot_begin = {0};
  std::vector<int> required;
  for (const MentionGroup& group : mentions.groups) {
    const bool strict = std::any_of(group.canopies.begin(),
                                    group.canopies.end(), all_linkable);
    for (const Canopy& canopy : group.canopies) {
      const std::vector<int>& members = canopy.mentions;
      slot_begin.push_back(slot_begin.back() +
                           static_cast<int>(members.size()));
      required.push_back(static_cast<int>(
          strict ? members.size()
                 : std::count_if(members.begin(), members.end(), linkable)));
    }
    canopy_begin.push_back(static_cast<int>(required.size()));
  }
  std::vector<int> recorded(slot_begin.back(), -1);
  std::vector<int> num_recorded(required.size(), 0);

  // Gamma.values(), by concept index.
  std::vector<char> selected(cg.num_concept_nodes(), 0);
  auto is_selected = [&](int node) {
    return selected[node - cg.num_mentions()] != 0;
  };
  int unresolved_groups = num_groups;

  auto process_pair = [&](int mention, int concept_node) {
    const int g = mentions.mention(mention).group;
    if (result.group_resolved[g]) return;  // pruning strategy 3
    const MentionGroup& group = mentions.groups[g];
    for (size_t k = 0; k < group.canopies.size(); ++k) {
      const std::vector<int>& members = group.canopies[k].mentions;
      const auto at = std::find(members.begin(), members.end(), mention);
      if (at == members.end()) continue;
      const int c = canopy_begin[g] + static_cast<int>(k);
      int& slot = recorded[slot_begin[c] + (at - members.begin())];
      if (slot < 0) {  // first recording wins
        slot = concept_node;
        ++num_recorded[c];
      }
      if (required[c] > 0 && num_recorded[c] == required[c]) {
        // Canopy complete: commit to Gamma and resolve the group.
        for (size_t p = 0; p < members.size(); ++p) {
          const int node = recorded[slot_begin[c] + p];
          if (node < 0) continue;
          result.node_of_mention[members[p]] = node;
          selected[node - cg.num_mentions()] = 1;
        }
        result.group_resolved[g] = true;
        result.winning_canopy[g] = static_cast<int>(k);
        --unresolved_groups;
        return;
      }
    }
  };

  // ---- Kruskal-style sweep ------------------------------------------------
  for (const CoverEdge& edge : edges) {
    if (options_.early_termination && unresolved_groups == 0) {
      break;  // pruning strategy 4
    }

    const bool u_is_mention = cg.IsMentionNode(edge.u);
    const bool v_is_mention = cg.IsMentionNode(edge.v);
    if (u_is_mention || v_is_mention) {
      // Mention-candidate edge.
      int mention = u_is_mention ? edge.u : edge.v;
      int concept_node = u_is_mention ? edge.v : edge.u;
      if (result.IsLinked(mention)) continue;  // pruning strategy 1
      process_pair(mention, concept_node);
      continue;
    }

    // Concept-concept edge.
    const int mention_u = cg.MentionOfNode(edge.u);
    const int mention_v = cg.MentionOfNode(edge.v);
    const bool u_linked = result.IsLinked(mention_u);
    const bool v_linked = result.IsLinked(mention_v);
    if (!u_linked && !v_linked) {
      process_pair(mention_u, edge.u);
      process_pair(mention_v, edge.v);
    } else if (is_selected(edge.u) && !v_linked) {
      // The chosen concept u vouches for its neighbor v.
      process_pair(mention_v, edge.v);
    } else if (is_selected(edge.v) && !u_linked) {
      process_pair(mention_u, edge.u);
    }
    // Otherwise: a linked mention's non-selected candidate, or both linked
    // already — discard (pruning strategy 2).
  }
  for (int m = 0; m < cg.num_mentions(); ++m) {
    if (result.IsLinked(m)) {
      result.selected_node.emplace_back(m, result.node_of_mention[m]);
    }
  }
  return result;
}

}  // namespace core
}  // namespace tenet
