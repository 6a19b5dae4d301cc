#ifndef TENET_GRAPH_MST_H_
#define TENET_GRAPH_MST_H_

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
/// all E edges; kept as the reference PrimMst is tested against.
SpanningForest KruskalMst(const WeightedGraph& g);

/// The tree KruskalMst accepts, in KruskalMst's order, without sorting all
/// E edges (Algorithm 1's step (c)).  Both algorithms only compare edges,
/// by (weight, index); that order is strict, so the minimum spanning tree
/// under it is unique and Prim's algorithm, grown here from node 0, picks
/// the same edges.  A heap entry is pushed only when an edge improves a
/// node's lightest known link to the tree: O(E log V) time, O(V + E)
/// memory.  The V - 1 picked edges are then sorted into Kruskal's
/// acceptance order, so edge_indices and total_weight equal KruskalMst's on
/// a connected graph.  On a disconnected graph only node 0's component is
/// spanned, and spans_all is false.
SpanningForest PrimMst(const WeightedGraph& g);

}  // namespace graph
}  // namespace tenet

#endif  // TENET_GRAPH_MST_H_
