#include "core/coherence_graph.h"

#include <algorithm>
#include <latch>
#include <utility>

#include "common/logging.h"
#include "embedding/dot_kernel.h"
#include "text/limits.h"

namespace tenet {
namespace core {
namespace {

// Column-tile width of the triangular sweep: 128 unit rows of a typical
// 64-128 dim embedding are 64-128 KB, sized to stay resident in L2
// while every row of a task strip revisits the tile.
constexpr int kTileCols = 128;

// Below this many concept nodes the pair count is too small for task
// submission to pay for itself; build serially.
constexpr int kMinConceptsForParallel = 64;

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

CoherenceGraphBuilder::CoherenceGraphBuilder(
    std::shared_ptr<const kb::KbView> view, CoherenceGraphOptions options)
    : view_(std::move(view)), options_(options) {
  TENET_CHECK(view_ != nullptr);
  TENET_CHECK_GT(options_.max_candidates_per_mention, 0);
  TENET_CHECK_GE(options_.num_threads, 0);
}

CoherenceGraphBuilder::CoherenceGraphBuilder(
    const kb::KnowledgeBase* kb, const embedding::EmbeddingStore* embeddings,
    CoherenceGraphOptions options)
    : CoherenceGraphBuilder(std::make_shared<kb::KbView>(kb, embeddings),
                            options) {}

CoherenceGraph CoherenceGraphBuilder::Build(MentionSet mentions) const {
  return Build(std::move(mentions), options_.similarity_cache);
}

CoherenceGraph CoherenceGraphBuilder::Build(
    MentionSet mentions, embedding::SimilarityCache* cache,
    uint64_t cache_epoch) const {
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
  // whole document), then a tiled triangular sweep.
  const int dim = view_->dimension();
  std::vector<kb::ConceptRef> refs(num_concepts);
  for (int i = 0; i < num_concepts; ++i) refs[i] = cg.concept_nodes_[i].ref;
  std::vector<double> rows(static_cast<size_t>(num_concepts) * dim);
  view_->GatherUnit(refs, rows.data());

  // The similarity of pair (i, j), via the cache when one is installed.
  // Cached and computed values are bit-identical: both are the DotUnit
  // reduction over the store's unit rows (the scratch holds verbatim
  // copies), so a warm cache never changes an edge weight.
  auto pair_cosine = [&](int i, int j) {
    const double* ri = rows.data() + static_cast<size_t>(i) * dim;
    const double* rj = rows.data() + static_cast<size_t>(j) * dim;
    if (cache != nullptr) {
      return cache->GetOrCompute(
          refs[i], refs[j],
          [&] {
            return embedding::ClampCosine(embedding::DotUnit(ri, rj, dim));
          },
          cache_epoch);
    }
    return embedding::ClampCosine(embedding::DotUnit(ri, rj, dim));
  };

  // One task: the triangular strip of rows [begin, end), column-tiled so
  // a block of rows stays hot while the whole strip revisits it.  Edges
  // land in per-row buckets and are flushed in row order, so the output
  // sequence is lexicographic in (i, j) whatever the tile width.
  auto compute_strip = [&](int begin, int end,
                           std::vector<graph::Edge>& out) {
    std::vector<std::vector<graph::Edge>> per_row(end - begin);
    for (int jb = begin + 1; jb < num_concepts; jb += kTileCols) {
      const int je = std::min(num_concepts, jb + kTileCols);
      const int i_hi = std::min(end, je - 1);
      for (int i = begin; i < i_hi; ++i) {
        const CoherenceGraph::ConceptNode& a = cg.concept_nodes_[i];
        std::vector<graph::Edge>& bucket = per_row[i - begin];
        for (int j = std::max(i + 1, jb); j < je; ++j) {
          const CoherenceGraph::ConceptNode& b = cg.concept_nodes_[j];
          if (!connected(a, b)) continue;
          bucket.push_back(graph::Edge{num_mentions + i, num_mentions + j,
                                       1.0 - pair_cosine(i, j)});
        }
      }
    }
    size_t total = 0;
    for (const std::vector<graph::Edge>& bucket : per_row) {
      total += bucket.size();
    }
    out.reserve(out.size() + total);
    for (const std::vector<graph::Edge>& bucket : per_row) {
      out.insert(out.end(), bucket.begin(), bucket.end());
    }
  };

  int num_tasks = 1;
  if (options_.pool != nullptr && num_concepts >= kMinConceptsForParallel) {
    num_tasks = options_.num_threads > 0 ? options_.num_threads
                                         : options_.pool->num_threads();
    num_tasks = std::clamp(num_tasks, 1, num_concepts);
  }

  if (num_tasks <= 1) {
    compute_strip(0, num_concepts, edges);
  } else {
    // Pair-count-balanced deterministic partition: row i owns C - i - 1
    // pairs, so contiguous equal-row chunks would give the first task
    // nearly all the work.  Sweep rows, closing a strip whenever it has
    // accumulated its share of the triangle.
    const int64_t total_pairs =
        static_cast<int64_t>(num_concepts) * (num_concepts - 1) / 2;
    const int64_t target = (total_pairs + num_tasks - 1) / num_tasks;
    std::vector<std::pair<int, int>> strips;
    int begin = 0;
    int64_t acc = 0;
    for (int i = 0; i < num_concepts; ++i) {
      acc += num_concepts - i - 1;
      if (acc >= target || i == num_concepts - 1) {
        strips.emplace_back(begin, i + 1);
        begin = i + 1;
        acc = 0;
      }
    }

    std::vector<std::vector<graph::Edge>> partial(strips.size());
    std::latch done(static_cast<ptrdiff_t>(strips.size()));
    for (size_t t = 0; t < strips.size(); ++t) {
      auto task = [&, t] {
        compute_strip(strips[t].first, strips[t].second, partial[t]);
        done.count_down();
      };
      // A pool that stopped accepting work (shutdown race) degrades to
      // inline execution; the build must still complete.
      if (!options_.pool->Submit(task).ok()) task();
    }
    done.wait();
    for (std::vector<graph::Edge>& p : partial) {
      edges.insert(edges.end(), p.begin(), p.end());
    }
  }

  cg.graph_ = graph::WeightedGraph(cg.num_nodes(), std::move(edges));
  return cg;
}

}  // namespace core
}  // namespace tenet
