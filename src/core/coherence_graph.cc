#include "core/coherence_graph.h"

#include <utility>

#include "common/logging.h"
#include "embedding/dot_kernel.h"
#include "text/limits.h"

namespace tenet {
namespace core {

int CoherenceGraph::MentionOfNode(int node) const {
  TENET_CHECK(node >= 0 && node < num_nodes());
  if (node < num_mentions()) return node;
  return concept_nodes_[node - num_mentions()].mention;
}

const CoherenceGraph::ConceptNode& CoherenceGraph::concept_node(
    int node) const {
  TENET_CHECK(node >= num_mentions() && node < num_nodes());
  return concept_nodes_[node - num_mentions()];
}

const std::vector<int>& CoherenceGraph::ConceptNodesOfMention(
    int mention) const {
  TENET_CHECK(mention >= 0 && mention < num_mentions());
  return concepts_of_mention_[mention];
}

CoherenceGraphBuilder::CoherenceGraphBuilder(
    std::shared_ptr<const kb::KbView> view, CoherenceGraphOptions options)
    : view_(std::move(view)), options_(options) {
  TENET_CHECK(view_ != nullptr);
  TENET_CHECK_GT(options_.max_candidates_per_mention, 0);
}

CoherenceGraphBuilder::CoherenceGraphBuilder(
    const kb::KnowledgeBase* kb, const embedding::EmbeddingStore* embeddings,
    CoherenceGraphOptions options)
    : CoherenceGraphBuilder(std::make_shared<kb::KbView>(kb, embeddings),
                            options) {}

CoherenceGraph CoherenceGraphBuilder::Build(MentionSet mentions) const {
  // Pass 1: candidate generation, to size the node space.  Postings past
  // the per-mention cap are counted (hostile surfaces with hundreds of
  // candidates are exactly what the cap is for) but never fetched, so the
  // returned top-k and its renormalized priors are unchanged.
  const int num_mentions = mentions.num_mentions();
  std::vector<CoherenceGraph::ConceptNode> concept_nodes;
  std::vector<std::vector<int>> of_mention(num_mentions);
  int64_t candidate_overflow = 0;
  for (int m = 0; m < num_mentions; ++m) {
    const Mention& mention = mentions.mention(m);
    int overflow = 0;
    if (mention.is_noun()) {
      for (const kb::EntityCandidate& c : view_->CandidateEntities(
               mention.surface, mention.type,
               options_.max_candidates_per_mention, &overflow)) {
        of_mention[m].push_back(static_cast<int>(concept_nodes.size()));
        concept_nodes.push_back(CoherenceGraph::ConceptNode{
            m, kb::ConceptRef::Entity(c.entity), c.prior});
      }
    } else {
      for (const kb::PredicateCandidate& c : view_->CandidatePredicates(
               mention.surface, options_.max_candidates_per_mention,
               &overflow)) {
        of_mention[m].push_back(static_cast<int>(concept_nodes.size()));
        concept_nodes.push_back(CoherenceGraph::ConceptNode{
            m, kb::ConceptRef::Predicate(c.predicate), c.prior});
      }
    }
    candidate_overflow += overflow;
  }
  text::RecordInputTruncated(text::InputTruncateReason::kCandidates,
                             candidate_overflow);

  CoherenceGraph cg(std::move(mentions),
                    static_cast<int>(concept_nodes.size()));
  cg.concept_nodes_ = std::move(concept_nodes);
  for (int m = 0; m < num_mentions; ++m) {
    for (int local : of_mention[m]) {
      cg.concepts_of_mention_[m].push_back(num_mentions + local);
    }
  }

  // The edge list: mention -> candidate edges (local semantic distance,
  // Eqs. 1-2), then the concept x concept edges in (i, j) order.  As
  // emitted it is unique and lexicographic, so the graph takes it as is.
  std::vector<graph::Edge> edges;
  for (int m = 0; m < num_mentions; ++m) {
    for (int node : cg.concepts_of_mention_[m]) {
      double prior = cg.concept_node(node).prior;
      edges.push_back(graph::Edge{m, node, 1.0 - prior});
    }
  }

  // Concept x concept edges (global semantic distance, Eqs. 3-5).
  const int num_concepts = cg.num_concept_nodes();
  if (num_concepts == 0) return cg;

  // Whether the pair (i, j) gets an edge at all: entity pairs always
  // (Eq. 3); predicate-predicate and entity-predicate edges require the
  // phrases to share a sentence (Eqs. 4-5).
  auto connected = [&](const CoherenceGraph::ConceptNode& a,
                       const CoherenceGraph::ConceptNode& b) {
    if (a.mention == b.mention) return false;
    if (a.ref.is_entity() && b.ref.is_entity()) return true;
    return cg.mentions_.mention(a.mention)
        .SharesSentence(cg.mentions_.mention(b.mention));
  };

  // Batched kernel: one gather of every candidate's unit row into a
  // contiguous row-major scratch (a single dependency operation for the
  // whole document), then one row-major triangular sweep that appends each
  // connected pair straight to the edge list, so the list stays in (i, j)
  // order.  The scratch holds verbatim copies of the store's unit rows, so
  // every weight is bit-identical to a per-pair Cosine() call.
  const int dim = view_->dimension();
  std::vector<kb::ConceptRef> refs(num_concepts);
  for (int i = 0; i < num_concepts; ++i) refs[i] = cg.concept_nodes_[i].ref;
  std::vector<double> rows(static_cast<size_t>(num_concepts) * dim);
  view_->GatherUnit(refs, rows.data());
  for (int i = 0; i < num_concepts; ++i) {
    const CoherenceGraph::ConceptNode& a = cg.concept_nodes_[i];
    const double* ri = rows.data() + static_cast<size_t>(i) * dim;
    for (int j = i + 1; j < num_concepts; ++j) {
      if (!connected(a, cg.concept_nodes_[j])) continue;
      const double* rj = rows.data() + static_cast<size_t>(j) * dim;
      edges.push_back(graph::Edge{
          num_mentions + i, num_mentions + j,
          1.0 - embedding::ClampCosine(embedding::DotUnit(ri, rj, dim))});
    }
  }

  cg.graph_ = graph::WeightedGraph(cg.num_nodes(), std::move(edges));
  return cg;
}

}  // namespace core
}  // namespace tenet
