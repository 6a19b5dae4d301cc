#ifndef TENET_CORE_COHERENCE_GRAPH_H_
#define TENET_CORE_COHERENCE_GRAPH_H_

#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/mention.h"
#include "embedding/embedding_store.h"
#include "kb/kb_view.h"
#include "kb/knowledge_base.h"

namespace tenet {
namespace core {

// Knobs of coherence-graph construction.
struct CoherenceGraphOptions {
  /// Candidates per mention (the parameter k of Figures 6(d) and 7(c)).
  /// The paper finds 3-4 optimal: fewer starves coherence, more adds noise.
  int max_candidates_per_mention = 4;
};

// The knowledge coherence graph G = (V, E) of Definition 4.
//
// Node layout: ids [0, M) are mention nodes (id == mention id in the owned
// MentionSet); ids [M, M + C) are concept nodes, one per (mention,
// candidate) pair.  A candidate concept shared by two mentions yields two
// concept nodes whose connecting edge has distance 1 - cos(v, v) ~= 0.
//
// Edges (Sec. 3):
//   * mention -> own candidate, weight 1 - P(c|m)            (Eqs. 1-2)
//   * entity  -> entity of a different mention, 1 - cos      (Eq. 3)
//   * predicate -> predicate of a different relational phrase in the same
//     sentence, 1 - cos                                      (Eq. 4)
//   * entity -> predicate whose phrases share a sentence, 1 - cos (Eq. 5)
//
// Storage is dense, because a document's graph is nearly complete: each
// concept's mention-edge weight, and a symmetric C x C matrix of concept
// distances, +inf where Definition 4 draws no edge (the diagonal, two
// candidates of one mention, phrases that share no sentence).  Concept
// index i is node M + i.
class CoherenceGraph {
 public:
  // One candidate concept node.
  struct ConceptNode {
    int mention = -1;  // owning mention id
    kb::ConceptRef ref;
    double prior = 0.0;  // P(c | mention)
  };

  /// Itself; kept for perfbench's `graph().num_edges()` until ROADMAP
  /// item 1.
  const CoherenceGraph& graph() const { return *this; }
  const MentionSet& mentions() const { return mentions_; }
  /// Moves the mention universe out.  Every node query keeps working, since
  /// the graph keeps its own mention count; mentions() is empty after.
  MentionSet TakeMentions() && { return std::move(mentions_); }

  int num_mentions() const { return num_mentions_; }
  int num_concept_nodes() const {
    return static_cast<int>(concept_nodes_.size());
  }
  int num_nodes() const { return num_mentions() + num_concept_nodes(); }
  /// One mention edge per concept node, plus the connected concept pairs.
  int num_edges() const { return num_concept_nodes() + num_concept_pairs_; }

  bool IsMentionNode(int node) const { return node < num_mentions(); }

  /// The mention id a node belongs to: itself for mention nodes, the owning
  /// mention for concept nodes.
  int MentionOfNode(int node) const;

  /// Details of concept node `node` (which must be >= num_mentions()).
  const ConceptNode& concept_node(int node) const;

  /// Node ids of the candidates of `mention`.
  const std::vector<int>& ConceptNodesOfMention(int mention) const;

  /// The weight of concept i's mention edge, 1 - P(c|m), by concept index.
  std::span<const double> MentionEdgeWeights() const {
    return mention_edge_weight_;
  }
  /// The C x C concept-distance matrix, row-major by concept index.
  std::span<const double> ConceptDistances() const { return distance_; }

  /// Weight of the edge (u, v) between node ids, or `missing` when absent.
  double EdgeWeight(int u, int v, double missing) const;

  /// True when the edge (u, v) exists.
  bool HasEdge(int u, int v) const;

 private:
  friend class CoherenceGraphBuilder;
  explicit CoherenceGraph(MentionSet mentions)
      : mentions_(std::move(mentions)),
        num_mentions_(mentions_.num_mentions()),
        concepts_of_mention_(num_mentions_) {}

  MentionSet mentions_;
  int num_mentions_;
  std::vector<ConceptNode> concept_nodes_;
  std::vector<std::vector<int>> concepts_of_mention_;
  std::vector<double> mention_edge_weight_;  // by concept index
  std::vector<double> distance_;             // C x C, +inf: no edge
  int num_concept_pairs_ = 0;                // finite cells above the diagonal
};

// Builds CoherenceGraphs for documents against one KB + embedding store.
//
// The concept x concept stage is the pipeline's dominant cost (O(C^2)
// similarities per document), so it runs as a batched kernel: one
// GatherUnit fetches every candidate's unit row into a contiguous
// row-major scratch (a single dependency operation), then one row-major
// triangular sweep computes each connected pair's weight with the DotUnit
// reduction — identical values to per-pair Cosine() calls — and writes it
// straight into both halves of the distance matrix.
class CoherenceGraphBuilder {
 public:
  /// Builds against the KB substrate behind `view`; the view is
  /// shared-owned so generations can retire while a builder is mid-flight.
  CoherenceGraphBuilder(std::shared_ptr<const kb::KbView> view,
                        CoherenceGraphOptions options = {});

  /// Convenience: wraps `kb` + `embeddings` (which must outlive the
  /// builder and be finalized) in a KbView.
  CoherenceGraphBuilder(const kb::KnowledgeBase* kb,
                        const embedding::EmbeddingStore* embeddings,
                        CoherenceGraphOptions options = {});

  /// Builds the coherence graph over `mentions` (moved in; retrievable via
  /// CoherenceGraph::mentions()).  Its candidate lookups and its one
  /// embedding gather are recorded in `outcomes` when non-null.
  CoherenceGraph Build(MentionSet mentions,
                       DependencyOutcomes* outcomes = nullptr) const;

  const kb::KbView& view() const { return *view_; }

 private:
  std::shared_ptr<const kb::KbView> view_;
  CoherenceGraphOptions options_;
};

}  // namespace core
}  // namespace tenet

#endif  // TENET_CORE_COHERENCE_GRAPH_H_
