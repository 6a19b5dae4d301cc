#include "graph/graph.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace tenet {
namespace graph {

WeightedGraph::WeightedGraph(int num_nodes, std::vector<Edge> edges)
    : num_nodes_(num_nodes), edges_(std::move(edges)) {
  TENET_CHECK_GE(num_nodes, 0);
  for (const Edge& e : edges_) {
    TENET_CHECK(e.u >= 0 && e.u < num_nodes_) << "bad node " << e.u;
    TENET_CHECK(e.v >= 0 && e.v < num_nodes_) << "bad node " << e.v;
  }
  MergeParallelEdges();
}

void WeightedGraph::MergeParallelEdges() {
  // Bucket the edges by their smaller endpoint, index order kept within a
  // bucket (a counting sort).  In a bucket, the first edge to reach a
  // larger endpoint is the one kept; later ones fold their weight into it.
  const int num_input = num_edges();
  std::vector<int> bucket_begin(num_nodes_ + 1, 0);
  for (const Edge& e : edges_) ++bucket_begin[std::min(e.u, e.v) + 1];
  for (int node = 0; node < num_nodes_; ++node) {
    bucket_begin[node + 1] += bucket_begin[node];
  }
  std::vector<int> by_low(num_input);
  std::vector<int> next(bucket_begin.begin(), bucket_begin.end() - 1);
  for (int i = 0; i < num_input; ++i) {
    by_low[next[std::min(edges_[i].u, edges_[i].v)]++] = i;
  }

  std::vector<bool> keep(num_input, false);
  std::vector<int> first(num_nodes_, -1);  // kept edge last seen per node
  for (int low = 0; low < num_nodes_; ++low) {
    for (int k = bucket_begin[low]; k < bucket_begin[low + 1]; ++k) {
      const int i = by_low[k];
      const int high = std::max(edges_[i].u, edges_[i].v);
      if (high == low) continue;  // self-loop
      Edge* kept = first[high] >= 0 ? &edges_[first[high]] : nullptr;
      if (kept != nullptr && std::min(kept->u, kept->v) == low) {
        kept->weight = std::min(kept->weight, edges_[i].weight);
        continue;
      }
      first[high] = i;
      keep[i] = true;
    }
  }
  int kept_count = 0;
  for (int i = 0; i < num_input; ++i) {
    if (keep[i]) edges_[kept_count++] = edges_[i];
  }
  edges_.resize(kept_count);
}

}  // namespace graph
}  // namespace tenet
