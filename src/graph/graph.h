#ifndef TENET_GRAPH_GRAPH_H_
#define TENET_GRAPH_GRAPH_H_

#include <span>
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
// [0, n), built once from an edge list into a flat edge array plus CSR
// incidence lists.
//
// Construction drops self-loops and merges parallel edges — (u, v) and
// (v, u) alike — into their first occurrence, which keeps its orientation
// and the minimum weight.  Edge indices follow the order of first
// occurrence, and every incidence list is in index order.  An edge list
// that is already canonical (u < v, strictly increasing (u, v), the order
// the coherence graph builder emits) skips the merge, and its incidence
// lists come out sorted by neighbor, so FindEdge binary-searches them.
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

  /// Indices into edges() of the edges incident to `node`, ascending.
  std::span<const int> IncidentEdges(int node) const;

  /// The endpoint of edge `edge_index` that is not `node`.
  int OtherEndpoint(int edge_index, int node) const;

  /// Index of the undirected edge (u, v), or -1 when absent.
  int FindEdge(int u, int v) const;

  /// True when the undirected edge (u, v) exists.
  bool HasEdge(int u, int v) const { return FindEdge(u, v) >= 0; }

  /// Edge weight, or `missing` when (u, v) is absent.
  double EdgeWeight(int u, int v, double missing) const;

 private:
  void MergeParallelEdges();

  int num_nodes_;
  std::vector<Edge> edges_;
  std::vector<int> incident_begin_;  // CSR offsets into incident_, n + 1
  std::vector<int> incident_;        // edge indices grouped by endpoint
  bool canonical_ = true;            // see the class comment
};

}  // namespace graph
}  // namespace tenet

#endif  // TENET_GRAPH_GRAPH_H_
