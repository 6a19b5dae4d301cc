#include "graph/mst.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "graph/union_find.h"

namespace tenet {
namespace graph {

SpanningForest KruskalMst(const WeightedGraph& g) {
  SpanningForest result;
  std::vector<int> order(g.num_edges());
  for (int i = 0; i < g.num_edges(); ++i) order[i] = i;
  const std::vector<Edge>& edges = g.edges();
  std::sort(order.begin(), order.end(), [&edges](int a, int b) {
    if (edges[a].weight != edges[b].weight) {
      return edges[a].weight < edges[b].weight;
    }
    return a < b;
  });

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

std::vector<Edge> DenseMst(std::span<const double> root,
                           std::span<const double> block,
                           double max_edge_weight) {
  const int k = static_cast<int>(root.size());  // nodes 1..k besides 0
  TENET_CHECK_EQ(block.size(), static_cast<size_t>(k) * k);
  // +inf entries stay absent even under an infinite bound.
  const double cap =
      std::min(max_edge_weight, std::numeric_limits<double>::max());
  // The (lo, hi) order of two edges, given their endpoints.
  auto key_less = [](int a_from, int a_to, int b_from, int b_to) {
    return std::pair(std::min(a_from, a_to), std::max(a_from, a_to)) <
           std::pair(std::min(b_from, b_to), std::max(b_from, b_to));
  };
  // The nodes outside the tree, as a swap-remove list: rest[p] is reached
  // from the tree by its lightest known edge, of weight best[p] from tree
  // node from[p] (-1 while no edge is known).
  std::vector<int> rest(k);
  std::iota(rest.begin(), rest.end(), 1);
  std::vector<double> best(k, std::numeric_limits<double>::infinity());
  std::vector<int> from(k, -1);
  std::vector<Edge> tree;
  tree.reserve(k);
  int joined = 0;                   // the node that joined the tree last
  const double* row = root.data();  // its edge weights, by node - 1
  while (!rest.empty()) {
    // One pass relaxes the edges from `joined` and picks the lightest
    // edge leaving the tree.  Weights decide; the endpoints are read only
    // on a tie.
    const int size = static_cast<int>(rest.size());
    int pick = -1;
    double pick_weight = std::numeric_limits<double>::infinity();
    for (int p = 0; p < size; ++p) {
      const double w = row[rest[p] - 1];
      // Both edges end at rest[p], so their (lo, hi) order is the order
      // of their other endpoints.
      if (w <= cap && (w < best[p] || (w == best[p] && joined < from[p]))) {
        best[p] = w;
        from[p] = joined;
      }
      if (best[p] < pick_weight ||
          (best[p] == pick_weight && pick >= 0 &&
           key_less(from[p], rest[p], from[pick], rest[pick]))) {
        pick = p;
        pick_weight = best[p];
      }
    }
    if (pick < 0) break;  // nothing left is reachable from node 0
    joined = rest[pick];
    tree.push_back(Edge{from[pick], joined, pick_weight});
    rest[pick] = rest[size - 1];
    best[pick] = best[size - 1];
    from[pick] = from[size - 1];
    rest.pop_back();
    best.pop_back();
    from.pop_back();
    row = block.data() + static_cast<size_t>(joined - 1) * k;
  }
  // Kruskal accepts the tree's edges lightest first.
  std::sort(tree.begin(), tree.end(),
            [&key_less](const Edge& a, const Edge& b) {
              if (a.weight != b.weight) return a.weight < b.weight;
              return key_less(a.u, a.v, b.u, b.v);
            });
  return tree;
}

}  // namespace graph
}  // namespace tenet
