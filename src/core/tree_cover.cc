#include "core/tree_cover.h"

#include <algorithm>
#include <limits>
#include <span>
#include <utility>

#include "common/dependency_health.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "core/tree_split.h"
#include "graph/dijkstra.h"
#include "graph/hopcroft_karp.h"
#include "graph/mst.h"
#include "graph/tree.h"
#include "obs/metrics.h"

namespace tenet {
namespace core {
namespace {

// The cover tree made of exactly `tree`'s edges, in its breadth-first
// order.
CoverTree ToCoverTree(const graph::RootedTree& tree) {
  CoverTree out;
  out.root = tree.root();
  out.nodes = tree.nodes();
  out.edges.reserve(tree.num_edges());
  for (const graph::TreeEdge& e : tree.edges()) {
    out.edges.push_back(graph::Edge{e.parent, e.child, e.weight});
  }
  out.weight = tree.TotalWeight();
  return out;
}

// Step (f): matches every carved subtree to a mention within shortest-path
// distance <= bound (Hopcroft-Karp), then merges each matched subtree, and
// the shortest path reaching it, into that mention's tree.  The searches
// run over the edges step (a) kept, one mention at a time, so one distance
// array is alive at once; a mention that receives a subtree is searched
// again for its path.
Status MatchSubtrees(const graph::WeightedGraph& g, double bound,
                     const std::vector<graph::RootedTree>& subtrees,
                     TreeCover* cover, TreeCoverStats* stats) {
  const int num_mentions = static_cast<int>(cover->trees.size());
  const int num_subtrees = static_cast<int>(subtrees.size());
  graph::HopcroftKarp matcher(num_mentions, num_subtrees);
  // reachable[reachable_begin[m] ...]: (subtree, its node closest to m) for
  // every subtree within the bound of mention m, subtrees ascending.
  std::vector<int> reachable_begin(num_mentions + 1, 0);
  std::vector<std::pair<int, int>> reachable;
  for (int m = 0; m < num_mentions; ++m) {
    const graph::ShortestPaths paths = graph::Dijkstra(g, m, bound);
    for (int s = 0; s < num_subtrees; ++s) {
      double best = std::numeric_limits<double>::infinity();
      int best_node = -1;
      for (int node : subtrees[s].nodes()) {
        if (paths.distance[node] < best) {
          best = paths.distance[node];
          best_node = node;
        }
      }
      if (best_node >= 0 && best <= bound) {
        matcher.AddEdge(m, s);
        reachable.emplace_back(s, best_node);
      }
    }
    reachable_begin[m + 1] = static_cast<int>(reachable.size());
  }
  const int matched = matcher.MaxMatching();
  if (matched < num_subtrees) {
    return Status::BoundTooSmall(
        "maximum matching cannot assign every subtree; B below B*");
  }
  if (stats != nullptr) stats->matched_subtrees = matched;

  // A node or edge already in mention m's tree carries stamp m.
  std::vector<int> node_stamp(g.num_nodes(), -1);
  std::vector<int> edge_stamp(g.num_edges(), -1);
  auto edge_index = [&g](int u, int v) {
    const int index = g.FindEdge(u, v);
    TENET_CHECK_GE(index, 0) << "cover edge " << u << "-" << v
                             << " not in the graph";
    return index;
  };
  for (int m = 0; m < num_mentions; ++m) {
    const int s = matcher.MatchOfLeft(m);
    if (s < 0) continue;
    CoverTree& tree = cover->trees[m];
    for (int node : tree.nodes) node_stamp[node] = m;
    for (const graph::Edge& e : tree.edges) edge_stamp[edge_index(e.u, e.v)] = m;
    auto add_node = [&](int node) {
      if (node_stamp[node] == m) return;
      node_stamp[node] = m;
      tree.nodes.push_back(node);
    };
    auto add_edge = [&](int u, int v, double weight) {
      const int index = edge_index(u, v);
      if (edge_stamp[index] == m) return;
      edge_stamp[index] = m;
      tree.edges.push_back(graph::Edge{u, v, weight});
      tree.weight += weight;
      add_node(u);
      add_node(v);
    };
    add_node(subtrees[s].root());
    for (const graph::TreeEdge& e : subtrees[s].edges()) {
      add_edge(e.parent, e.child, e.weight);
    }
    const auto first = reachable.begin() + reachable_begin[m];
    const auto last = reachable.begin() + reachable_begin[m + 1];
    const auto target = std::lower_bound(first, last, std::make_pair(s, -1));
    TENET_CHECK(target != last && target->first == s);
    const std::vector<int> path =
        graph::Dijkstra(g, m, bound).PathTo(g, target->second);
    for (size_t i = 1; i < path.size(); ++i) {
      add_edge(path[i - 1], path[i],
               g.EdgeWeight(path[i - 1], path[i], 0.0));
    }
  }
  return Status::Ok();
}

}  // namespace

double TreeCover::Cost() const {
  double cost = 0.0;
  for (const CoverTree& t : trees) cost = std::max(cost, t.weight);
  return cost;
}

int TreeCover::TotalEdges() const {
  int total = 0;
  for (const CoverTree& t : trees) total += static_cast<int>(t.edges.size());
  return total;
}

Result<TreeCover> TreeCoverSolver::Solve(const CoherenceGraph& cg,
                                         double bound,
                                         TreeCoverStats* stats) const {
  const bool faulted = TENET_FAULT_POINT("core/cover_solve");
  // Only the fault (the stand-in for an unavailable solver backend) is a
  // dependency failure; kBoundTooSmall below is an expected, retryable
  // outcome of Algorithm 1 and must not trip a breaker.
  TENET_OBSERVE_DEPENDENCY("core/cover_solve", !faulted);
  static obs::DependencyOpCounters& ops =
      *new obs::DependencyOpCounters("core/cover_solve");
  ops.Record(!faulted);
  if (faulted) {
    return Status::Internal("injected fault: cover solver unavailable");
  }
  if (bound <= 0.0) {
    return Status::InvalidArgument("tree cover bound must be positive");
  }
  const int num_mentions = cg.num_mentions();
  const int num_concepts = cg.num_concept_nodes();
  const graph::WeightedGraph& g = cg.graph();

  TreeCover cover;
  cover.trees.resize(num_mentions);
  for (int m = 0; m < num_mentions; ++m) {
    cover.trees[m].root = m;
    cover.trees[m].nodes = {m};
  }
  if (num_concepts == 0) return cover;  // every mention isolated

  // ---- Steps (a) + (b): edge pruning and major root contraction ---------
  // One filtered, relabelled pass over the edges: contracted node 0 is r,
  // contracted node j + 1 is concept node (num_mentions + j).  Every
  // concept node has exactly one mention edge, so contraction creates no
  // parallel edges, and filtering keeps edge order: contracted edge indices
  // follow the relative order of the coherence-graph edges they come from,
  // the order Kruskal's tie-break is defined on.
  std::vector<graph::Edge> kept;
  kept.reserve(g.num_edges());
  for (const graph::Edge& e : g.edges()) {
    if (!(e.weight <= bound)) continue;
    const int u = e.u < num_mentions ? 0 : e.u - num_mentions + 1;
    const int v = e.v < num_mentions ? 0 : e.v - num_mentions + 1;
    TENET_DCHECK(u != v);
    kept.push_back(graph::Edge{std::min(u, v), std::max(u, v), e.weight});
  }
  const int num_kept = static_cast<int>(kept.size());
  const graph::WeightedGraph contracted(num_concepts + 1, std::move(kept));
  TENET_DCHECK(contracted.num_edges() == num_kept);
  if (stats != nullptr) stats->pruned_edges = g.num_edges() - num_kept;

  // ---- Step (c): MST in Kruskal's order (see Sec. 4.2 discussion) --------
  graph::SpanningForest mst = graph::PrimMst(contracted);
  if (!mst.spans_all) {
    return Status::BoundTooSmall(
        "pruned contracted graph is disconnected; B below B*");
  }
  if (stats != nullptr) {
    stats->mst_edges = static_cast<int>(mst.edge_indices.size());
  }

  // ---- Step (d): decompose r back into the mentions ----------------------
  // Removing r splits the MST into components, each hanging off r by one
  // star edge whose concept belongs to one mention.  A mention's tree is
  // its components, breadth-first from the mention, each node's children
  // in acceptance order: the incidence order of the MST rebuilt as a graph
  // whose edge indices are acceptance positions.
  std::vector<graph::Edge> accepted;
  accepted.reserve(mst.edge_indices.size());
  for (int index : mst.edge_indices) {
    accepted.push_back(contracted.edges()[index]);
  }
  const graph::WeightedGraph tree_graph(num_concepts + 1,
                                        std::move(accepted));
  auto node_of = [num_mentions](int contracted_node) {
    return num_mentions + contracted_node - 1;
  };
  // Star edges grouped by owning mention, acceptance order kept.
  const std::span<const int> star = tree_graph.IncidentEdges(0);
  auto owner = [&](int edge) {
    return cg.MentionOfNode(node_of(tree_graph.OtherEndpoint(edge, 0)));
  };
  std::vector<int> owned_begin(num_mentions + 1, 0);
  for (int edge : star) ++owned_begin[owner(edge) + 1];
  for (int m = 0; m < num_mentions; ++m) owned_begin[m + 1] += owned_begin[m];
  std::vector<int> owned(star.size());
  {
    std::vector<int> next(owned_begin.begin(), owned_begin.end() - 1);
    for (int edge : star) owned[next[owner(edge)]++] = edge;
  }

  // ---- Step (e): tree splitting ------------------------------------------
  std::vector<graph::RootedTree> subtrees;
  std::vector<std::pair<int, int>> queue;  // (contracted node, edge to it)
  for (int m = 0; m < num_mentions; ++m) {
    if (owned_begin[m] == owned_begin[m + 1]) continue;
    CoverTree& tree = cover.trees[m];
    auto attach = [&](int parent, int edge, int child) {
      const double weight = tree_graph.edges()[edge].weight;
      tree.edges.push_back(graph::Edge{parent, node_of(child), weight});
      tree.nodes.push_back(node_of(child));
      tree.weight += weight;
      queue.emplace_back(child, edge);
    };
    queue.clear();
    for (int k = owned_begin[m]; k < owned_begin[m + 1]; ++k) {
      attach(m, owned[k], tree_graph.OtherEndpoint(owned[k], 0));
    }
    for (size_t q = 0; q < queue.size(); ++q) {
      const auto [node, via] = queue[q];
      for (int edge : tree_graph.IncidentEdges(node)) {
        if (edge != via) {
          attach(node_of(node), edge, tree_graph.OtherEndpoint(edge, node));
        }
      }
    }
    // A tree within the bound is its own leftover (Algorithm 2, lines
    // 1-2); only heavier ones are split.
    if (tree.weight <= bound) continue;
    std::vector<graph::TreeEdge> oriented;
    oriented.reserve(tree.edges.size());
    for (const graph::Edge& e : tree.edges) {
      oriented.push_back(graph::TreeEdge{e.u, e.v, e.weight});
    }
    Result<graph::RootedTree> rooted =
        graph::RootedTree::FromOrientedEdges(m, oriented);
    TENET_CHECK(rooted.ok()) << rooted.status();
    Result<SplitResult> split = SplitTree(rooted.value(), bound);
    TENET_CHECK(split.ok()) << split.status();
    tree = ToCoverTree(split.value().leftover);
    for (graph::RootedTree& s : split.value().subtrees) {
      subtrees.push_back(std::move(s));
    }
  }
  if (stats != nullptr) {
    stats->subtrees = static_cast<int>(subtrees.size());
  }

  // ---- Step (f): maximum matching of subtrees to mentions ----------------
  if (!subtrees.empty()) {
    Status matched = MatchSubtrees(g, bound, subtrees, &cover, stats);
    if (!matched.ok()) return matched;
  }
  if (stats != nullptr) stats->cover_total_edges = cover.TotalEdges();
  return cover;
}

Result<std::pair<double, TreeCover>> SolveWithMinimalBound(
    const TreeCoverSolver& solver, const CoherenceGraph& cg,
    double initial_bound, double tolerance) {
  if (initial_bound <= 0.0) {
    return Status::InvalidArgument("initial bound must be positive");
  }
  double hi = initial_bound;
  Result<TreeCover> at_hi = solver.Solve(cg, hi);
  int guard = 0;
  while (!at_hi.ok()) {
    if (!at_hi.status().IsBoundTooSmall() || ++guard > 64) {
      return at_hi.status();
    }
    hi *= 2.0;
    at_hi = solver.Solve(cg, hi);
  }
  double lo = 0.0;
  // Bisect [lo, hi); hi always feasible.
  while (hi - lo > tolerance * hi) {
    double mid = (lo + hi) / 2.0;
    if (mid <= 0.0) break;
    Result<TreeCover> at_mid = solver.Solve(cg, mid);
    if (at_mid.ok()) {
      hi = mid;
      at_hi = std::move(at_mid);
    } else if (at_mid.status().IsBoundTooSmall()) {
      lo = mid;
    } else {
      return at_mid.status();
    }
  }
  return std::make_pair(hi, std::move(at_hi).value());
}

}  // namespace core
}  // namespace tenet
