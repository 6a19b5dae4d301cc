#ifndef TENET_GRAPH_GRAPH_H_
#define TENET_GRAPH_GRAPH_H_

#include <vector>

namespace tenet {
namespace graph {

// One undirected weighted edge.  `u < v` is not required: (u, v) and
// (v, u) are the same edge.
struct Edge {
  int u = 0;
  int v = 0;
  double weight = 0.0;
};

// An immutable undirected weighted graph over dense integer node ids
// [0, n), built once from an edge list: the input of the reference
// KruskalMst.  The coherence graph keeps its own dense layout
// (core/coherence_graph.h).
//
// Construction drops self-loops and merges parallel edges — (u, v) and
// (v, u) alike — into their first occurrence, which keeps its orientation
// and the minimum weight.  Edge indices follow the order of first
// occurrence.
//
// Example:
//   WeightedGraph g(4, {{0, 1, 0.3}, {1, 0, 0.1}});  // one edge, 0.1
//   for (const Edge& e : g.edges()) ...
class WeightedGraph {
 public:
  explicit WeightedGraph(int num_nodes = 0, std::vector<Edge> edges = {});

  int num_nodes() const { return num_nodes_; }
  int num_edges() const { return static_cast<int>(edges_.size()); }
  const std::vector<Edge>& edges() const { return edges_; }

 private:
  void MergeParallelEdges();

  int num_nodes_;
  std::vector<Edge> edges_;
};

}  // namespace graph
}  // namespace tenet

#endif  // TENET_GRAPH_GRAPH_H_
