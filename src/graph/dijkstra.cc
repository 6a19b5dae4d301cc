#include "graph/dijkstra.h"

#include <algorithm>
#include <queue>

#include "common/logging.h"

namespace tenet {
namespace graph {

std::vector<int> ShortestPaths::PathTo(const WeightedGraph& g,
                                       int target) const {
  std::vector<int> path;
  if (target < 0 || target >= static_cast<int>(distance.size()) ||
      distance[target] == kUnreachable) {
    return path;
  }
  int node = target;
  path.push_back(node);
  while (predecessor_edge[node] >= 0) {
    node = g.OtherEndpoint(predecessor_edge[node], node);
    path.push_back(node);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

ShortestPaths Dijkstra(const WeightedGraph& g, int source,
                       double max_edge_weight) {
  TENET_CHECK(source >= 0 && source < g.num_nodes());
  ShortestPaths result;
  result.distance.assign(g.num_nodes(), ShortestPaths::kUnreachable);
  result.predecessor_edge.assign(g.num_nodes(), -1);
  result.distance[source] = 0.0;

  using Item = std::pair<double, int>;  // (distance, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  heap.emplace(0.0, source);
  while (!heap.empty()) {
    auto [dist, node] = heap.top();
    heap.pop();
    if (dist > result.distance[node]) continue;  // stale entry
    for (int edge_index : g.IncidentEdges(node)) {
      const Edge& e = g.edges()[edge_index];
      if (!(e.weight <= max_edge_weight)) continue;
      TENET_DCHECK(e.weight >= 0.0);
      int other = g.OtherEndpoint(edge_index, node);
      double candidate = dist + e.weight;
      if (candidate < result.distance[other]) {
        result.distance[other] = candidate;
        result.predecessor_edge[other] = edge_index;
        heap.emplace(candidate, other);
      }
    }
  }
  return result;
}

}  // namespace graph
}  // namespace tenet
