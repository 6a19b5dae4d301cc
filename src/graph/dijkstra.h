#ifndef TENET_GRAPH_DIJKSTRA_H_
#define TENET_GRAPH_DIJKSTRA_H_

#include <limits>
#include <vector>

#include "graph/graph.h"

namespace tenet {
namespace graph {

// Single-source shortest path result over non-negative edge weights.
struct ShortestPaths {
  /// distance[v] is the cost of the cheapest path source -> v, or
  /// kUnreachable when no path exists.
  std::vector<double> distance;
  /// predecessor_edge[v] is the index (into the graph's edges()) of the last
  /// edge on the cheapest path to v, or -1 for the source / unreachable.
  std::vector<int> predecessor_edge;

  static constexpr double kUnreachable =
      std::numeric_limits<double>::infinity();

  /// Reconstructs the node sequence source..target (empty if unreachable).
  std::vector<int> PathTo(const WeightedGraph& g, int target) const;
};

/// Dijkstra from `source` over the edges of weight <= `max_edge_weight`
/// (all of them by default).  Edge weights must be >= 0 (semantic distances
/// in the coherence graph are by construction in [0, 2]).  The matching
/// step of Algorithm 1 passes its bound B: the search then sees exactly the
/// graph step (a) pruned, without a pruned copy.
ShortestPaths Dijkstra(
    const WeightedGraph& g, int source,
    double max_edge_weight = std::numeric_limits<double>::infinity());

}  // namespace graph
}  // namespace tenet

#endif  // TENET_GRAPH_DIJKSTRA_H_
