#include "core/tree_split.h"

#include <utility>

#include "common/logging.h"

namespace tenet {
namespace core {
namespace {

// Recursive splitter.  Returns the still-attached ("residual") subtree
// below the node at position `pos` as an oriented edge list together with
// its weight (<= bound), carving subtrees into `out` along the way.
struct Residual {
  std::vector<graph::TreeEdge> edges;
  double weight = 0.0;
};

Residual SplitBelow(const graph::RootedTree& tree, int pos, double bound,
                    std::vector<graph::RootedTree>* out) {
  const int node = tree.nodes()[pos];
  Residual residual;
  for (int child = tree.ChildBegin(pos); child < tree.ChildEnd(pos);
       ++child) {
    const graph::TreeEdge& edge = tree.edges()[child - 1];
    Residual below = SplitBelow(tree, child, bound, out);
    // Everything hanging from `node` through `child`.
    double contribution = below.weight + edge.weight;
    TENET_DCHECK(contribution <= 2.0 * bound);

    if (residual.weight + contribution <= bound) {
      // Still light: keep attached.
      residual.edges.push_back(edge);
      residual.edges.insert(residual.edges.end(), below.edges.begin(),
                            below.edges.end());
      residual.weight += contribution;
      continue;
    }
    if (contribution > bound) {
      // The child branch alone is a valid subtree in (bound, 2*bound];
      // carve it and keep the current residual bundle.
      std::vector<graph::TreeEdge> carved = std::move(below.edges);
      carved.push_back(edge);
      Result<graph::RootedTree> subtree =
          graph::RootedTree::FromOrientedEdges(node, carved);
      TENET_CHECK(subtree.ok()) << subtree.status();
      out->push_back(std::move(subtree).value());
      continue;
    }
    // residual + contribution in (bound, 2*bound] (since residual <= bound
    // and contribution <= bound): carve the bundle together with this
    // branch as one subtree rooted at `node`.
    std::vector<graph::TreeEdge> carved = std::move(residual.edges);
    carved.push_back(edge);
    carved.insert(carved.end(), below.edges.begin(), below.edges.end());
    Result<graph::RootedTree> subtree =
        graph::RootedTree::FromOrientedEdges(node, carved);
    TENET_CHECK(subtree.ok()) << subtree.status();
    out->push_back(std::move(subtree).value());
    residual = Residual{};
  }
  return residual;
}

}  // namespace

Result<SplitResult> SplitTree(const graph::RootedTree& tree, double bound) {
  if (bound <= 0.0) {
    return Status::InvalidArgument("tree splitting bound must be positive");
  }
  for (const graph::TreeEdge& e : tree.edges()) {
    if (e.weight > bound) {
      return Status::InvalidArgument(
          "tree contains an edge heavier than the bound; prune first");
    }
  }
  SplitResult result;
  // Fast path (Algorithm 2 lines 1-2): already light enough.
  if (tree.TotalWeight() <= bound) {
    result.leftover = tree;
    return result;
  }
  Residual residual = SplitBelow(tree, /*pos=*/0, bound, &result.subtrees);
  Result<graph::RootedTree> leftover =
      graph::RootedTree::FromOrientedEdges(tree.root(), residual.edges);
  TENET_CHECK(leftover.ok()) << leftover.status();
  result.leftover = std::move(leftover).value();
  return result;
}

}  // namespace core
}  // namespace tenet
