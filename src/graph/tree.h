#ifndef TENET_GRAPH_TREE_H_
#define TENET_GRAPH_TREE_H_

#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace tenet {
namespace graph {

// An edge of a rooted tree, oriented parent -> child.
struct TreeEdge {
  int parent = 0;
  int child = 0;
  double weight = 0.0;
};

// A rooted tree over arbitrary integer node ids — typically node ids of a
// knowledge coherence graph — stored flat in breadth-first order: nodes()
// starts with the root, edges()[k] attaches nodes()[k + 1] to its parent,
// and the children of each node fill one contiguous run of nodes().
// Traversals address nodes by position, so nothing is keyed by node id.
//
// Invariants: connected, acyclic, every node reachable from root().
class RootedTree {
 public:
  /// Builds from oriented edges; the breadth-first order visits each
  /// node's children in the order their edges are supplied.  Fails with
  /// InvalidArgument when the edges do not form a tree rooted at `root`
  /// (a node with two parents, a cycle, or an edge unreachable from the
  /// root).  A tree may be a single isolated `root` with no edges.
  static Result<RootedTree> FromOrientedEdges(
      int root, const std::vector<TreeEdge>& edges);

  /// Single-node tree.
  static RootedTree Singleton(int root);

  int root() const { return nodes_.front(); }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  /// All node ids in breadth-first order, root first.
  const std::vector<int>& nodes() const { return nodes_; }
  /// edges()[k] is the edge from its parent to nodes()[k + 1].
  const std::vector<TreeEdge>& edges() const { return edges_; }

  /// The children of nodes()[pos] sit at positions
  /// [ChildBegin(pos), ChildEnd(pos)) of nodes().
  int ChildBegin(int pos) const { return child_begin_[pos]; }
  int ChildEnd(int pos) const { return child_begin_[pos + 1]; }

  /// Sum of all edge weights — the paper's tree weight omega(T).
  double TotalWeight() const { return total_weight_; }

 private:
  RootedTree() = default;

  std::vector<int> nodes_;
  std::vector<TreeEdge> edges_;
  std::vector<int> child_begin_;  // num_nodes() + 1 offsets into nodes_
  double total_weight_ = 0.0;
};

}  // namespace graph
}  // namespace tenet

#endif  // TENET_GRAPH_TREE_H_
