// The vectorized coherence kernel's contract (DESIGN.md §10): the DotUnit
// reduction, the store's unit rows and the builder's gathered single-pass
// sweep must produce the SAME numbers as a per-pair Cosine reference
// computed here — bit-identical edge weights, in the same (i, j) order.
// The golden equivalence test here is what lets the performance work
// claim "numerically invisible".
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "core/canopy.h"
#include "core/coherence_graph.h"
#include "core/mention.h"
#include "datasets/corpus_generator.h"
#include "datasets/world.h"
#include "embedding/dot_kernel.h"
#include "embedding/embedding_store.h"
#include "graph/graph.h"
#include "text/extraction.h"

namespace tenet {
namespace core {
namespace {

const datasets::SyntheticWorld& World() {
  static const datasets::SyntheticWorld* world =
      new datasets::SyntheticWorld(datasets::BuildWorld());
  return *world;
}

datasets::Dataset SmallNews(uint64_t seed) {
  datasets::CorpusGenerator gen(&World().kb_world);
  Rng rng(seed);
  datasets::DatasetSpec spec = datasets::NewsSpec();
  spec.num_docs = 8;
  return gen.Generate(spec, rng);
}

MentionSet MentionsOf(const std::string& text) {
  text::Extractor extractor(&World().gazetteer());
  return BuildMentionSet(extractor.ExtractFromText(text),
                         &World().gazetteer());
}

// --- The reduction itself -------------------------------------------------

TEST(DotKernelTest, MatchesDoubleReference) {
  Rng rng(7);
  for (int dim : {1, 2, 7, 8, 9, 15, 16, 17, 64, 127, 128, 129}) {
    std::vector<double> a(dim), b(dim);
    for (int d = 0; d < dim; ++d) {
      a[d] = rng.NextDouble(-1.0, 1.0);
      b[d] = rng.NextDouble(-1.0, 1.0);
    }
    double reference = 0.0;
    for (int d = 0; d < dim; ++d) reference += a[d] * b[d];
    EXPECT_NEAR(embedding::DotUnit(a.data(), b.data(), dim), reference,
                1e-12 * (1.0 + std::abs(reference)))
        << "dim " << dim;
  }
}

TEST(DotKernelTest, ClampCosineBounds) {
  EXPECT_EQ(embedding::ClampCosine(1.0000001), 1.0);
  EXPECT_EQ(embedding::ClampCosine(-1.0000001), -1.0);
  EXPECT_EQ(embedding::ClampCosine(0.25), 0.25);
}

// --- Unit rows and the gather --------------------------------------------

embedding::EmbeddingStore SmallStore(int dimension = 24) {
  embedding::EmbeddingStore store(dimension, /*num_entities=*/6,
                                  /*num_predicates=*/2);
  Rng rng(11);
  for (int e = 0; e < 5; ++e) {  // entity 5 stays the zero vector
    for (float& x : store.MutableVector(kb::ConceptRef::Entity(e))) {
      x = static_cast<float>(rng.NextDouble(-2.0, 2.0));
    }
  }
  for (int p = 0; p < 2; ++p) {
    for (float& x : store.MutableVector(kb::ConceptRef::Predicate(p))) {
      x = static_cast<float>(rng.NextDouble(-2.0, 2.0));
    }
  }
  store.Finalize();
  return store;
}

// The unit row the store must write for `ref`, computed here from the
// float row: divided by its L2 norm, summed in index order; a zero row
// stays zero.
std::vector<double> ReferenceUnit(const embedding::EmbeddingStore& store,
                                  kb::ConceptRef ref) {
  std::span<const float> v = store.Vector(ref);
  double sum = 0.0;
  for (float x : v) sum += double{x} * x;
  const double norm = std::sqrt(sum);
  std::vector<double> unit(v.size(), 0.0);
  if (norm > 0.0) {
    for (size_t d = 0; d < v.size(); ++d) unit[d] = double{v[d]} / norm;
  }
  return unit;
}

std::vector<double> GatherOne(const embedding::EmbeddingStore& store,
                              kb::ConceptRef ref) {
  std::vector<double> unit(store.dimension(), -1.0);  // must be overwritten
  store.GatherUnit({&ref, 1}, unit.data());
  return unit;
}

TEST(EmbeddingStoreKernelTest, UnitRowsHaveUnitNorm) {
  embedding::EmbeddingStore store = SmallStore();
  for (int e = 0; e < 5; ++e) {
    const kb::ConceptRef ref = kb::ConceptRef::Entity(e);
    double norm = 0.0;
    for (double x : GatherOne(store, ref)) norm += x * x;
    EXPECT_NEAR(norm, 1.0, 1e-12) << "entity " << e;
    EXPECT_NEAR(store.Cosine(ref, ref), 1.0, 1e-12);
  }
}

TEST(EmbeddingStoreKernelTest, ZeroRowsStayZeroAndCosineZero) {
  embedding::EmbeddingStore store = SmallStore();
  for (double x : GatherOne(store, kb::ConceptRef::Entity(5))) {
    EXPECT_EQ(x, 0.0);
  }
  EXPECT_EQ(store.Cosine(kb::ConceptRef::Entity(5), kb::ConceptRef::Entity(0)),
            0.0);
}

// GatherUnit and Cosine against the reference above, bit for bit, the zero
// row included; 100 dimensions run past Cosine's stack buffer.
TEST(EmbeddingStoreKernelTest, GatherUnitMatchesReferenceBitForBit) {
  for (int dim : {24, 100}) {
    embedding::EmbeddingStore store = SmallStore(dim);
    std::vector<kb::ConceptRef> refs = {
        kb::ConceptRef::Entity(3), kb::ConceptRef::Predicate(1),
        kb::ConceptRef::Entity(5), kb::ConceptRef::Entity(0)};
    std::vector<double> rows(refs.size() * dim);
    store.GatherUnit(refs, rows.data());
    for (size_t i = 0; i < refs.size(); ++i) {
      std::vector<double> unit = ReferenceUnit(store, refs[i]);
      EXPECT_EQ(std::memcmp(rows.data() + i * dim, unit.data(),
                            dim * sizeof(double)),
                0)
          << "dim " << dim << " row " << i;
      for (size_t j = 0; j < refs.size(); ++j) {
        std::vector<double> other = ReferenceUnit(store, refs[j]);
        EXPECT_EQ(store.Cosine(refs[i], refs[j]),
                  embedding::ClampCosine(
                      embedding::DotUnit(unit.data(), other.data(), dim)))
            << "dim " << dim << " pair " << i << ", " << j;
      }
    }
  }
}

TEST(EmbeddingStoreKernelTest, GatherIsOneDependencyOperation) {
  datasets::Dataset news = SmallNews(46);
  CoherenceGraphBuilder builder(&World().kb(), &World().embeddings);
  FaultInjector faults(/*seed=*/5);
  int builds = 0;
  for (const datasets::Document& doc : news.documents) {
    MentionSet mentions = MentionsOf(doc.text);
    if (mentions.num_mentions() == 0) continue;
    CoherenceGraph cg = builder.Build(std::move(mentions));
    if (cg.num_concept_nodes() > 0) ++builds;
  }
  ASSERT_GT(builds, 0);
  // One gather — hence one fault-point hit — per document with candidates,
  // instead of one per concept pair.
  EXPECT_EQ(faults.HitCount("embedding/fetch"), builds);
}

// --- Golden equivalence ---------------------------------------------------

// The per-pair reference for Def. 4's edge list: mention edges, then every
// connected concept pair in (i, j) order, each weighed by one
// KbView::Cosine call — no gather.
std::vector<graph::Edge> ReferenceEdges(const CoherenceGraph& cg,
                                        const kb::KbView& view) {
  std::vector<graph::Edge> edges;
  const int num_mentions = cg.num_mentions();
  for (int m = 0; m < num_mentions; ++m) {
    for (int node : cg.ConceptNodesOfMention(m)) {
      edges.push_back(
          graph::Edge{m, node, 1.0 - cg.concept_node(node).prior});
    }
  }
  for (int u = num_mentions; u < cg.num_nodes(); ++u) {
    const CoherenceGraph::ConceptNode& a = cg.concept_node(u);
    for (int v = u + 1; v < cg.num_nodes(); ++v) {
      const CoherenceGraph::ConceptNode& b = cg.concept_node(v);
      if (a.mention == b.mention) continue;
      const bool entities = a.ref.is_entity() && b.ref.is_entity();
      if (!entities && !cg.mentions().mention(a.mention).SharesSentence(
                           cg.mentions().mention(b.mention))) {
        continue;
      }
      edges.push_back(graph::Edge{u, v, 1.0 - view.Cosine(a.ref, b.ref)});
    }
  }
  return edges;
}

// The builder against the per-pair reference, bit for bit.  The last
// document concatenates the whole corpus, so one sweep runs well past 128
// concept nodes (the column-tile width of the former tiled sweep).
TEST(CoherenceKernelGoldenTest, EdgeListsAreBitIdenticalToPerPairCosine) {
  datasets::Dataset news = SmallNews(47);
  std::vector<std::string> texts;
  std::string concatenated;
  for (const datasets::Document& doc : news.documents) {
    texts.push_back(doc.text);
    concatenated += doc.text + " ";
  }
  texts.push_back(concatenated);

  CoherenceGraphBuilder builder(&World().kb(), &World().embeddings);
  int compared_edges = 0;
  int max_concepts = 0;
  for (const std::string& text : texts) {
    CoherenceGraph cg = builder.Build(MentionsOf(text));
    max_concepts = std::max(max_concepts, cg.num_concept_nodes());
    const std::vector<graph::Edge> reference =
        ReferenceEdges(cg, builder.view());
    ASSERT_EQ(static_cast<int>(reference.size()), cg.num_edges());
    for (const graph::Edge& want : reference) {
      ASSERT_TRUE(cg.HasEdge(want.u, want.v)) << want.u << "-" << want.v;
      // Bitwise: same reduction, and both halves of the matrix agree.
      ASSERT_EQ(want.weight, cg.EdgeWeight(want.u, want.v, -1.0));
      ASSERT_EQ(want.weight, cg.EdgeWeight(want.v, want.u, -1.0));
      ++compared_edges;
    }
  }
  EXPECT_GT(compared_edges, 100);
  EXPECT_GT(max_concepts, 128);
}

}  // namespace
}  // namespace core
}  // namespace tenet
