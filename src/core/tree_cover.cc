#include "core/tree_cover.h"

#include <algorithm>
#include <limits>
#include <span>
#include <utility>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "core/tree_split.h"
#include "graph/hopcroft_karp.h"
#include "graph/mst.h"
#include "graph/tree.h"

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

// Reusable arrays of one shortest-path search.
struct Search {
  std::vector<double> distance;  // by node id; +inf when never reached
  std::vector<int> predecessor;  // by node id; -1 for the source
  std::vector<int> frontier;     // reached, unsettled nodes
};

// Dijkstra's algorithm from `source` over the coherence graph's edges of
// weight <= bound (the graph step (a) keeps), on the dense layout: O(V^2),
// no heap.  Nodes settle in (distance, node id) order and relax with a
// strict <, so a node's predecessor is the first settled node that reaches
// its final distance; weights are non-negative, so a settled node never
// improves and never re-enters the frontier.  The search stops once the
// nearest unsettled node lies beyond the bound; every node within the
// bound is settled by then, with its final distance and predecessor, and
// every other node reads a distance above the bound.
void SearchWithinBound(const CoherenceGraph& cg, double bound, int source,
                       Search* search) {
  const int num_mentions = cg.num_mentions();
  const size_t num_concepts = cg.num_concept_nodes();
  const std::span<const double> mention_weight = cg.MentionEdgeWeights();
  const std::span<const double> distances = cg.ConceptDistances();
  std::vector<double>& distance = search->distance;
  std::vector<int>& predecessor = search->predecessor;
  std::vector<int>& frontier = search->frontier;
  distance.assign(cg.num_nodes(), std::numeric_limits<double>::infinity());
  predecessor.assign(cg.num_nodes(), -1);
  frontier.assign(1, source);
  distance[source] = 0.0;
  // +inf entries stay absent even under an infinite bound.
  const double cap = std::min(bound, std::numeric_limits<double>::max());
  auto relax = [&](int from, int to, double weight) {
    if (!(weight <= cap)) return;
    const double candidate = distance[from] + weight;
    if (candidate < distance[to]) {
      if (predecessor[to] < 0) frontier.push_back(to);
      distance[to] = candidate;
      predecessor[to] = from;
    }
  };
  while (!frontier.empty()) {
    size_t pick = 0;
    for (size_t p = 1; p < frontier.size(); ++p) {
      const int a = frontier[p];
      const int b = frontier[pick];
      if (distance[a] < distance[b] || (distance[a] == distance[b] && a < b)) {
        pick = p;
      }
    }
    const int node = frontier[pick];
    if (distance[node] > bound) break;  // the frontier passed the bound
    frontier[pick] = frontier.back();
    frontier.pop_back();
    if (node < num_mentions) {
      for (int concept_node : cg.ConceptNodesOfMention(node)) {
        relax(node, concept_node, mention_weight[concept_node - num_mentions]);
      }
      continue;
    }
    const size_t i = node - num_mentions;
    relax(node, cg.MentionOfNode(node), mention_weight[i]);
    const double* row = distances.data() + i * num_concepts;
    for (size_t j = 0; j < num_concepts; ++j) {
      relax(node, num_mentions + static_cast<int>(j), row[j]);
    }
  }
}

// Step (f): matches every carved subtree to a mention within shortest-path
// distance <= bound (Hopcroft-Karp), then merges each matched subtree, and
// the shortest path reaching it, into that mention's tree.  The searches
// run one mention at a time; a mention that reaches some subtree keeps its
// predecessor array, so its path is read back without a second search.
Status MatchSubtrees(const CoherenceGraph& cg, double bound,
                     const std::vector<graph::RootedTree>& subtrees,
                     TreeCover* cover, TreeCoverStats* stats) {
  const int num_mentions = cg.num_mentions();
  const size_t num_nodes = cg.num_nodes();
  const int num_subtrees = static_cast<int>(subtrees.size());
  graph::HopcroftKarp matcher(num_mentions, num_subtrees);
  // reachable[reachable_begin[m] ...]: (subtree, its node closest to m) for
  // every subtree within the bound of mention m, subtrees ascending.
  std::vector<int> reachable_begin(num_mentions + 1, 0);
  std::vector<std::pair<int, int>> reachable;
  // Mention m's predecessor array starts at
  // predecessors[predecessor_begin[m]].
  std::vector<size_t> predecessor_begin(num_mentions, 0);
  std::vector<int> predecessors;
  Search search;
  for (int m = 0; m < num_mentions; ++m) {
    SearchWithinBound(cg, bound, m, &search);
    const std::vector<double>& distance = search.distance;
    for (int s = 0; s < num_subtrees; ++s) {
      double best = std::numeric_limits<double>::infinity();
      int best_node = -1;
      for (int node : subtrees[s].nodes()) {
        if (distance[node] < best) {
          best = distance[node];
          best_node = node;
        }
      }
      if (best_node >= 0 && best <= bound) {
        matcher.AddEdge(m, s);
        reachable.emplace_back(s, best_node);
      }
    }
    reachable_begin[m + 1] = static_cast<int>(reachable.size());
    if (reachable_begin[m + 1] > reachable_begin[m]) {
      predecessor_begin[m] = predecessors.size();
      predecessors.insert(predecessors.end(), search.predecessor.begin(),
                          search.predecessor.end());
    }
  }
  const int matched = matcher.MaxMatching();
  if (matched < num_subtrees) {
    return Status::BoundTooSmall(
        "maximum matching cannot assign every subtree; B below B*");
  }
  if (stats != nullptr) stats->matched_subtrees = matched;

  // A node or edge already in mention m's tree carries stamp m.  A mention
  // edge is named by its concept index i, the concept pair i < j by
  // C + i * C + j.
  const size_t num_concepts = cg.num_concept_nodes();
  std::vector<int> node_stamp(num_nodes, -1);
  std::vector<int> edge_stamp(num_concepts * (num_concepts + 1), -1);
  auto edge_id = [num_mentions, num_concepts](int u, int v) {
    if (u > v) std::swap(u, v);
    TENET_DCHECK(v >= num_mentions);
    const size_t j = v - num_mentions;
    if (u < num_mentions) return j;
    return num_concepts * (u - num_mentions + 1) + j;
  };
  std::vector<int> path;
  for (int m = 0; m < num_mentions; ++m) {
    const int s = matcher.MatchOfLeft(m);
    if (s < 0) continue;
    CoverTree& tree = cover->trees[m];
    for (int node : tree.nodes) node_stamp[node] = m;
    for (const graph::Edge& e : tree.edges) edge_stamp[edge_id(e.u, e.v)] = m;
    auto add_node = [&](int node) {
      if (node_stamp[node] == m) return;
      node_stamp[node] = m;
      tree.nodes.push_back(node);
    };
    auto add_edge = [&](int u, int v, double weight) {
      const size_t id = edge_id(u, v);
      if (edge_stamp[id] == m) return;
      edge_stamp[id] = m;
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
    const int* predecessor = predecessors.data() + predecessor_begin[m];
    path.clear();
    for (int node = target->second; node >= 0; node = predecessor[node]) {
      path.push_back(node);
    }
    std::reverse(path.begin(), path.end());
    TENET_CHECK_EQ(path.front(), m);
    for (size_t i = 1; i < path.size(); ++i) {
      add_edge(path[i - 1], path[i],
               cg.EdgeWeight(path[i - 1], path[i], 0.0));
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
                                         double bound, TreeCoverStats* stats,
                                         DependencyOutcomes* outcomes) const {
  const bool faulted = TENET_FAULT_POINT("core/cover_solve");
  // Only the fault (the stand-in for an unavailable solver backend) is a
  // dependency failure; kBoundTooSmall below is an expected, retryable
  // outcome of Algorithm 1 and must not trip a breaker.
  if (outcomes != nullptr) {
    outcomes->Record(Dependency::kCoverSolve, !faulted);
  }
  if (faulted) {
    return Status::Internal("injected fault: cover solver unavailable");
  }
  if (bound <= 0.0) {
    return Status::InvalidArgument("tree cover bound must be positive");
  }
  const int num_mentions = cg.num_mentions();
  const int num_concepts = cg.num_concept_nodes();

  TreeCover cover;
  cover.trees.resize(num_mentions);
  for (int m = 0; m < num_mentions; ++m) {
    cover.trees[m].root = m;
    cover.trees[m].nodes = {m};
  }
  if (num_concepts == 0) return cover;  // every mention isolated

  // ---- Steps (a)-(c): prune at B, contract the mentions into r, MST ------
  // Contracted node 0 is r, and node i + 1 is concept i.  Every concept
  // has exactly one mention edge, so contraction makes no parallel edges
  // and r's row is the mention-edge weights.  Contraction keeps the
  // coherence graph's edge order (mention edges in concept order, then the
  // concept pairs in (i, j) order), which is (lo, hi) order over the
  // contracted ids.  So DenseMst's (weight, lo, hi) order is Kruskal's
  // (weight, edge index) order on the pruned contracted graph (see the
  // Sec. 4.2 discussion), and pruning is its weight cap.
  const std::vector<graph::Edge> accepted = graph::DenseMst(
      cg.MentionEdgeWeights(), cg.ConceptDistances(), bound);
  if (static_cast<int>(accepted.size()) < num_concepts) {
    return Status::BoundTooSmall(
        "pruned contracted graph is disconnected; B below B*");
  }
  if (stats != nullptr) stats->mst_edges = num_concepts;

  // ---- Step (d): decompose r back into the mentions ----------------------
  // Removing r splits the MST into components, each hanging off r by one
  // star edge whose concept belongs to one mention.  A mention's tree is
  // its components, breadth-first from the mention, each node's children
  // in acceptance order.  The children of contracted node x are the
  // accepted edges children[child_begin[x] ...], each oriented
  // parent -> child.
  std::vector<int> child_begin(num_concepts + 2, 0);
  for (const graph::Edge& e : accepted) ++child_begin[e.u + 1];
  for (int x = 0; x <= num_concepts; ++x) child_begin[x + 1] += child_begin[x];
  std::vector<int> children(num_concepts);
  {
    std::vector<int> next(child_begin.begin(), child_begin.end() - 1);
    for (int k = 0; k < num_concepts; ++k) {
      children[next[accepted[k].u]++] = k;
    }
  }
  auto node_of = [num_mentions](int contracted_node) {
    return num_mentions + contracted_node - 1;
  };
  // Star edges grouped by owning mention, acceptance order kept.
  const std::span<const int> star(children.data(), child_begin[1]);
  auto owner = [&](int edge) {
    return cg.MentionOfNode(node_of(accepted[edge].v));
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
  std::vector<int> queue;  // contracted nodes, breadth-first
  for (int m = 0; m < num_mentions; ++m) {
    if (owned_begin[m] == owned_begin[m + 1]) continue;
    CoverTree& tree = cover.trees[m];
    auto attach = [&](int parent, int edge) {
      const graph::Edge& e = accepted[edge];
      tree.edges.push_back(graph::Edge{parent, node_of(e.v), e.weight});
      tree.nodes.push_back(node_of(e.v));
      tree.weight += e.weight;
      queue.push_back(e.v);
    };
    queue.clear();
    for (int k = owned_begin[m]; k < owned_begin[m + 1]; ++k) {
      attach(m, owned[k]);
    }
    for (size_t q = 0; q < queue.size(); ++q) {
      const int node = queue[q];
      for (int k = child_begin[node]; k < child_begin[node + 1]; ++k) {
        attach(node_of(node), children[k]);
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
    Status matched = MatchSubtrees(cg, bound, subtrees, &cover, stats);
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
