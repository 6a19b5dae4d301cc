#ifndef TENET_CORE_TREE_COVER_H_
#define TENET_CORE_TREE_COVER_H_

#include <vector>

#include "common/dependency_health.h"
#include "common/result.h"
#include "core/coherence_graph.h"
#include "graph/graph.h"

namespace tenet {
namespace core {

// One tree T_i of an M-rooted coherence tree cover.  After the matching
// step a "tree" is the union of the leftover tree, an assigned subtree and
// the shortest path connecting them, so it is represented as a connected
// edge set rather than a strict tree (trees of a cover may share nodes and
// edges across — and after path-merging, within — each other; Def. 6).
struct CoverTree {
  /// The root mention node id (== mention id) in the coherence graph.
  int root = -1;
  /// Distinct edges of this tree (coherence-graph node ids).
  std::vector<graph::Edge> edges;
  /// Distinct nodes, root included (root-only for isolated mentions).
  std::vector<int> nodes;
  /// Sum of distinct edge weights, omega(T_i).
  double weight = 0.0;
};

// An M-rooted coherence tree cover (Definition 6): one tree per mention.
struct TreeCover {
  std::vector<CoverTree> trees;  // trees[i] is rooted at mention i

  /// The cover cost omega(T) = max_i omega(T_i) (Definition 6).
  double Cost() const;
  /// Total number of (per-tree) edges, the size measure of Figure 7(e).
  int TotalEdges() const;
};

// Solver statistics, reported for the efficiency experiments.
struct TreeCoverStats {
  int mst_edges = 0;         // MST size in step (c)
  int subtrees = 0;          // carved by step (e)
  int matched_subtrees = 0;  // assigned by step (f)
  int cover_total_edges = 0; // sum of per-tree edges of the final cover
};

// Implements Algorithm 1 (TreeCoverDetermination) on the coherence graph's
// dense layout:
//   (a) prune edges heavier than the bound B;
//   (b) contract all mention nodes into a major root r;
//   (c) MST over {r} ∪ C in Kruskal's (weight, edge index) order,
//       computed by graph::DenseMst, an O(C^2) array Prim whose weight cap
//       is step (a) (concept-concept edges included — the paper's running
//       example, Fig. 2; see DESIGN.md faithfulness notes);
//   (d) decompose r back into the mentions, yielding one rooted tree per
//       mention (mentions without concepts become isolated singletons);
//   (e) split each tree into a leftover (<= B) and subtrees in (B, 2B];
//   (f) maximum matching (Hopcroft–Karp) of subtrees to mentions within
//       shortest-path distance <= B (an array Dijkstra that stops past B),
//       then merge leftover + path + subtree.
//
// Returns kBoundTooSmall (the paper's failure warning) when the pruned
// contracted graph is disconnected or the matching cannot place every
// subtree.  On success the cover cost is at most 4B (Lemma 4.2).
class TreeCoverSolver {
 public:
  TreeCoverSolver() = default;

  /// One core/cover_solve operation, recorded in `outcomes` when non-null:
  /// only a fired fault (the stand-in for an unavailable solver backend)
  /// is a failed one; kBoundTooSmall is an expected, retryable outcome of
  /// Algorithm 1.
  Result<TreeCover> Solve(const CoherenceGraph& cg, double bound,
                          TreeCoverStats* stats = nullptr,
                          DependencyOutcomes* outcomes = nullptr) const;
};

/// Finds the smallest bound (within `tolerance`, relative) for which Solve
/// succeeds, by doubling then bisecting.  Returns the cover found at that
/// bound.  `initial_bound` seeds the search (e.g. |M|).
Result<std::pair<double, TreeCover>> SolveWithMinimalBound(
    const TreeCoverSolver& solver, const CoherenceGraph& cg,
    double initial_bound, double tolerance = 0.01);

}  // namespace core
}  // namespace tenet

#endif  // TENET_CORE_TREE_COVER_H_
