#ifndef TENET_GRAPH_MST_H_
#define TENET_GRAPH_MST_H_

#include <span>
#include <vector>

#include "graph/graph.h"

namespace tenet {
namespace graph {

// Result of a spanning-tree/forest computation.
struct SpanningForest {
  /// Indices into the input graph's edges() forming the forest.
  std::vector<int> edge_indices;
  /// Sum of the selected edge weights.
  double total_weight = 0.0;
  /// True when the forest is a single tree spanning every node.
  bool spans_all = false;
};

/// Kruskal's minimum spanning forest.  The paper deliberately uses Kruskal's
/// order — cheapest edges globally first — so that low-confidence choices are
/// forced to be consistent with confident ones (Sec. 4.2 discussion); the
/// tree-cover solver and Algorithm 5 both rely on this edge ordering.
/// Ties are broken by edge index, making the result deterministic.  Sorts
/// all E edges; kept as the reference DenseMst is tested against.
SpanningForest KruskalMst(const WeightedGraph& g);

/// The tree KruskalMst accepts on a dense graph, in KruskalMst's order,
/// computed by Prim's algorithm on arrays: O(V^2) time, O(V) extra memory,
/// no heap and no edge list (Algorithm 1's step (c)).
///
/// The graph has nodes [0, n) with n = root.size() + 1.  Node 0 (the
/// contracted root r) joins node j by an edge of weight root[j - 1]; nodes
/// i, j >= 1 are joined by block[(i - 1) * (n - 1) + (j - 1)], which must
/// be symmetric.  Entries heavier than `max_edge_weight`, and +inf
/// entries, are no edge.
///
/// Edges are ranked by (weight, lo, hi) over their endpoints, which is
/// KruskalMst's (weight, index) order when the edges are listed in (lo, hi)
/// order.  That order is strict, so the minimum spanning tree under it is
/// unique, and Prim's algorithm grown from node 0 picks the same edges.
/// Returns them sorted into Kruskal's acceptance order, each oriented
/// away from node 0 (u is the parent of v).  On a disconnected graph only
/// node 0's component is spanned and fewer than n - 1 edges come back.
std::vector<Edge> DenseMst(std::span<const double> root,
                           std::span<const double> block,
                           double max_edge_weight);

}  // namespace graph
}  // namespace tenet

#endif  // TENET_GRAPH_MST_H_
