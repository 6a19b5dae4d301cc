#include "graph/mst.h"

#include <algorithm>
#include <utility>

#include "graph/union_find.h"

namespace tenet {
namespace graph {
namespace {

// The strict total order both algorithms rank edges by.
bool Lighter(const std::vector<Edge>& edges, int a, int b) {
  if (edges[a].weight != edges[b].weight) {
    return edges[a].weight < edges[b].weight;
  }
  return a < b;
}

}  // namespace

SpanningForest KruskalMst(const WeightedGraph& g) {
  SpanningForest result;
  std::vector<int> order(g.num_edges());
  for (int i = 0; i < g.num_edges(); ++i) order[i] = i;
  const std::vector<Edge>& edges = g.edges();
  std::sort(order.begin(), order.end(),
            [&edges](int a, int b) { return Lighter(edges, a, b); });

  UnionFind uf(g.num_nodes());
  for (int idx : order) {
    const Edge& e = edges[idx];
    if (uf.Union(e.u, e.v)) {
      result.edge_indices.push_back(idx);
      result.total_weight += e.weight;
      if (uf.num_sets() == 1) break;
    }
  }
  result.spans_all = (g.num_nodes() <= 1) || (uf.num_sets() == 1);
  return result;
}

SpanningForest PrimMst(const WeightedGraph& g) {
  SpanningForest result;
  const int n = g.num_nodes();
  if (n == 0) {
    result.spans_all = true;
    return result;
  }
  const std::vector<Edge>& edges = g.edges();
  auto lighter = [&edges](int a, int b) { return Lighter(edges, a, b); };
  std::vector<int> best(n, -1);  // lightest edge seen from the tree
  std::vector<bool> in_tree(n, false);
  // (edge, node it reaches): a min-heap on the edge.
  std::vector<std::pair<int, int>> heap;
  auto heap_order = [&lighter](const std::pair<int, int>& a,
                               const std::pair<int, int>& b) {
    return lighter(b.first, a.first);
  };
  auto attach = [&](int node) {
    in_tree[node] = true;
    for (int edge : g.IncidentEdges(node)) {
      const int other = g.OtherEndpoint(edge, node);
      if (in_tree[other] ||
          (best[other] >= 0 && !lighter(edge, best[other]))) {
        continue;
      }
      best[other] = edge;
      heap.emplace_back(edge, other);
      std::push_heap(heap.begin(), heap.end(), heap_order);
    }
  };
  attach(0);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), heap_order);
    const auto [edge, node] = heap.back();
    heap.pop_back();
    if (in_tree[node]) continue;  // superseded by a lighter edge
    result.edge_indices.push_back(edge);
    attach(node);
  }
  // Kruskal accepts the tree's edges lightest first.
  std::sort(result.edge_indices.begin(), result.edge_indices.end(), lighter);
  for (int edge : result.edge_indices) {
    result.total_weight += edges[edge].weight;
  }
  result.spans_all = static_cast<int>(result.edge_indices.size()) == n - 1;
  return result;
}

}  // namespace graph
}  // namespace tenet
