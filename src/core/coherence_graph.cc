#include "core/coherence_graph.h"

#include <limits>
#include <utility>

#include "common/logging.h"
#include "embedding/dot_kernel.h"
#include "text/limits.h"

namespace tenet {
namespace core {
namespace {

// The matrix entry of a pair Definition 4 draws no edge between.
constexpr double kNoEdge = std::numeric_limits<double>::infinity();

}  // namespace

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

double CoherenceGraph::EdgeWeight(int u, int v, double missing) const {
  if (u > v) std::swap(u, v);
  const int m = num_mentions();
  if (u < 0 || v >= num_nodes() || v < m) return missing;
  if (u < m) {  // a mention edge joins a mention to its own candidates
    return concept_nodes_[v - m].mention == u ? mention_edge_weight_[v - m]
                                               : missing;
  }
  const double weight =
      distance_[static_cast<size_t>(u - m) * num_concept_nodes() + (v - m)];
  return weight == kNoEdge ? missing : weight;
}

bool CoherenceGraph::HasEdge(int u, int v) const {
  return EdgeWeight(u, v, kNoEdge) != kNoEdge;
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

CoherenceGraph CoherenceGraphBuilder::Build(
    MentionSet mentions, DependencyOutcomes* outcomes) const {
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
               options_.max_candidates_per_mention, &overflow, outcomes)) {
        of_mention[m].push_back(static_cast<int>(concept_nodes.size()));
        concept_nodes.push_back(CoherenceGraph::ConceptNode{
            m, kb::ConceptRef::Entity(c.entity), c.prior});
      }
    } else {
      for (const kb::PredicateCandidate& c : view_->CandidatePredicates(
               mention.surface, options_.max_candidates_per_mention,
               &overflow, outcomes)) {
        of_mention[m].push_back(static_cast<int>(concept_nodes.size()));
        concept_nodes.push_back(CoherenceGraph::ConceptNode{
            m, kb::ConceptRef::Predicate(c.predicate), c.prior});
      }
    }
    candidate_overflow += overflow;
  }
  text::RecordInputTruncated(text::InputTruncateReason::kCandidates,
                             candidate_overflow);

  CoherenceGraph cg(std::move(mentions));
  cg.concept_nodes_ = std::move(concept_nodes);
  const int num_concepts = cg.num_concept_nodes();
  cg.mention_edge_weight_.resize(num_concepts);
  for (int m = 0; m < num_mentions; ++m) {
    for (int local : of_mention[m]) {
      cg.concepts_of_mention_[m].push_back(num_mentions + local);
      // Local semantic distance, Eqs. 1-2.
      cg.mention_edge_weight_[local] = 1.0 - cg.concept_nodes_[local].prior;
    }
  }

  // Concept x concept edges (global semantic distance, Eqs. 3-5).
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
  // whole document), then one row-major triangular sweep that writes each
  // connected pair into both halves of the matrix.  The scratch holds the
  // same unit rows a per-pair Cosine() call writes, so every weight is
  // bit-identical to it.
  const int dim = view_->dimension();
  std::vector<kb::ConceptRef> refs(num_concepts);
  for (int i = 0; i < num_concepts; ++i) refs[i] = cg.concept_nodes_[i].ref;
  std::vector<double> rows(static_cast<size_t>(num_concepts) * dim);
  view_->GatherUnit(refs, rows.data(), outcomes);
  const size_t n = static_cast<size_t>(num_concepts);
  cg.distance_.assign(n * n, kNoEdge);
  for (int i = 0; i < num_concepts; ++i) {
    const CoherenceGraph::ConceptNode& a = cg.concept_nodes_[i];
    const double* ri = rows.data() + static_cast<size_t>(i) * dim;
    for (int j = i + 1; j < num_concepts; ++j) {
      if (!connected(a, cg.concept_nodes_[j])) continue;
      const double* rj = rows.data() + static_cast<size_t>(j) * dim;
      const double weight =
          1.0 - embedding::ClampCosine(embedding::DotUnit(ri, rj, dim));
      cg.distance_[i * n + j] = weight;
      cg.distance_[j * n + i] = weight;
      ++cg.num_concept_pairs_;
    }
  }
  return cg;
}

}  // namespace core
}  // namespace tenet
