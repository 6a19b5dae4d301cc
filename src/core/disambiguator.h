#ifndef TENET_CORE_DISAMBIGUATOR_H_
#define TENET_CORE_DISAMBIGUATOR_H_

#include <utility>
#include <vector>

#include "core/coherence_graph.h"
#include "core/tree_cover.h"

namespace tenet {
namespace core {

// Output of Algorithm 5: the mapping Gamma from selected mentions to the
// concept chosen for each.
struct DisambiguationResult {
  /// (mention id, selected concept node), ascending mention ids.
  std::vector<std::pair<int, int>> selected_node;
  /// The selected concept node (coherence-graph node id) per mention, or
  /// -1 when the mention is not linked.
  std::vector<int> node_of_mention;
  /// Groups whose canopy completed, i.e. were resolved before the edge
  /// stream ran dry.
  std::vector<bool> group_resolved;
  /// Index of the completed canopy per group, or -1 when unresolved.
  std::vector<int> winning_canopy;

  bool IsLinked(int mention) const { return node_of_mention[mention] >= 0; }
};

// Ablation knobs of the disambiguator.  The defaults are the published
// algorithm; each flag disables one design decision so the ablation
// benches can quantify it (DESIGN.md §7).
struct DisambiguatorOptions {
  /// Global Kruskal order across the whole cover.  When false, each tree
  /// T_i is swept separately in mention order — the "MST per tree"
  /// alternative Sec. 5.2 argues against (processing order then biases
  /// the results).
  bool global_kruskal_order = true;
  /// Among equal-weight edges, prefer the more informative (longer)
  /// mentions ("Fellow of the AAAS" over "Fellow").
  bool informative_tie_break = true;
  /// Pruning strategy 4: stop once every mention group is resolved.
  bool early_termination = true;
};

// The greedy knowledge disambiguation of Sec. 5.2 (Algorithm 5): a
// Kruskal-style sweep over the tree cover's edges in non-decreasing weight
// order, with the paper's four pruning strategies:
//   1. one concept per mention (later candidates of a linked mention are
//      skipped);
//   2. edges whose concept's mention is already linked are discarded
//      unless the linked endpoint pulls in the other side;
//   3. one canopy per mention group (mentions of competing canopies are
//      dropped once a canopy completes);
//   4. early termination once every group is resolved.
class Disambiguator {
 public:
  explicit Disambiguator(DisambiguatorOptions options = {})
      : options_(options) {}

  DisambiguationResult Run(const CoherenceGraph& cg,
                           const TreeCover& cover) const;

  const DisambiguatorOptions& options() const { return options_; }

 private:
  DisambiguatorOptions options_;
};

}  // namespace core
}  // namespace tenet

#endif  // TENET_CORE_DISAMBIGUATOR_H_
