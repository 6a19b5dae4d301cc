#include "graph/tree.h"

#include <algorithm>
#include <numeric>

namespace tenet {
namespace graph {

Result<RootedTree> RootedTree::FromOrientedEdges(
    int root, const std::vector<TreeEdge>& edges) {
  // A tree names every node but the root exactly once as a child.
  std::vector<int> named;
  named.reserve(edges.size() + 1);
  named.push_back(root);
  for (const TreeEdge& e : edges) named.push_back(e.child);
  std::sort(named.begin(), named.end());
  if (std::adjacent_find(named.begin(), named.end()) != named.end()) {
    return Status::InvalidArgument("duplicate node in tree edges");
  }
  // Edges grouped by parent, the supplied order kept within a group.
  std::vector<int> by_parent(edges.size());
  std::iota(by_parent.begin(), by_parent.end(), 0);
  std::stable_sort(by_parent.begin(), by_parent.end(),
                   [&edges](int a, int b) {
                     return edges[a].parent < edges[b].parent;
                   });

  RootedTree tree;
  tree.nodes_.reserve(edges.size() + 1);
  tree.edges_.reserve(edges.size());
  tree.child_begin_.reserve(edges.size() + 2);
  tree.nodes_.push_back(root);
  // Breadth-first; nodes_ doubles as the queue.
  for (size_t pos = 0; pos < tree.nodes_.size(); ++pos) {
    tree.child_begin_.push_back(static_cast<int>(tree.nodes_.size()));
    const int node = tree.nodes_[pos];
    auto it = std::partition_point(
        by_parent.begin(), by_parent.end(),
        [&edges, node](int i) { return edges[i].parent < node; });
    for (; it != by_parent.end() && edges[*it].parent == node; ++it) {
      const TreeEdge& e = edges[*it];
      tree.nodes_.push_back(e.child);
      tree.edges_.push_back(e);
      tree.total_weight_ += e.weight;
    }
  }
  tree.child_begin_.push_back(static_cast<int>(tree.nodes_.size()));
  if (tree.edges_.size() != edges.size()) {
    return Status::InvalidArgument(
        "oriented edges do not form a tree reachable from the root");
  }
  return tree;
}

RootedTree RootedTree::Singleton(int root) {
  RootedTree tree;
  tree.nodes_.push_back(root);
  tree.child_begin_ = {1, 1};
  return tree;
}

}  // namespace graph
}  // namespace tenet
