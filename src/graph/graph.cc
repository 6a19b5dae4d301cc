#include "graph/graph.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace tenet {
namespace graph {

WeightedGraph::WeightedGraph(int num_nodes, std::vector<Edge> edges)
    : num_nodes_(num_nodes), edges_(std::move(edges)) {
  TENET_CHECK_GE(num_nodes, 0);
  for (size_t i = 0; i < edges_.size(); ++i) {
    const Edge& e = edges_[i];
    TENET_CHECK(e.u >= 0 && e.u < num_nodes_) << "bad node " << e.u;
    TENET_CHECK(e.v >= 0 && e.v < num_nodes_) << "bad node " << e.v;
    canonical_ = canonical_ && e.u < e.v &&
                 (i == 0 || std::pair(edges_[i - 1].u, edges_[i - 1].v) <
                                std::pair(e.u, e.v));
  }
  if (!canonical_) MergeParallelEdges();

  // CSR incidence: count, prefix-sum, then fill in edge-index order.
  incident_begin_.assign(num_nodes_ + 1, 0);
  for (const Edge& e : edges_) {
    ++incident_begin_[e.u + 1];
    ++incident_begin_[e.v + 1];
  }
  for (int node = 0; node < num_nodes_; ++node) {
    incident_begin_[node + 1] += incident_begin_[node];
  }
  incident_.resize(incident_begin_[num_nodes_]);
  std::vector<int> next(incident_begin_.begin(), incident_begin_.end() - 1);
  for (int i = 0; i < num_edges(); ++i) {
    incident_[next[edges_[i].u]++] = i;
    incident_[next[edges_[i].v]++] = i;
  }
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

std::span<const int> WeightedGraph::IncidentEdges(int node) const {
  TENET_CHECK(node >= 0 && node < num_nodes_);
  return std::span<const int>(incident_).subspan(
      incident_begin_[node], incident_begin_[node + 1] - incident_begin_[node]);
}

int WeightedGraph::OtherEndpoint(int edge_index, int node) const {
  const Edge& e = edges_[edge_index];
  TENET_DCHECK(e.u == node || e.v == node);
  return e.u == node ? e.v : e.u;
}

int WeightedGraph::FindEdge(int u, int v) const {
  if (u == v || u < 0 || v < 0 || u >= num_nodes_ || v >= num_nodes_) {
    return -1;
  }
  // Search the shorter incidence list.
  if (incident_begin_[u + 1] - incident_begin_[u] >
      incident_begin_[v + 1] - incident_begin_[v]) {
    std::swap(u, v);
  }
  std::span<const int> incident = IncidentEdges(u);
  if (canonical_) {
    auto it = std::partition_point(
        incident.begin(), incident.end(),
        [this, u, v](int edge) { return OtherEndpoint(edge, u) < v; });
    return it != incident.end() && OtherEndpoint(*it, u) == v ? *it : -1;
  }
  for (int edge : incident) {
    if (OtherEndpoint(edge, u) == v) return edge;
  }
  return -1;
}

double WeightedGraph::EdgeWeight(int u, int v, double missing) const {
  const int index = FindEdge(u, v);
  return index < 0 ? missing : edges_[index].weight;
}

}  // namespace graph
}  // namespace tenet
