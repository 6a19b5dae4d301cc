// Golden digest of Algorithm 1's output on generated documents.  The
// solver's steps (d)-(f) fix an order on every cover tree's edges and
// nodes, and Algorithm 5 reads that order (its ties and the first
// orientation of each edge), so a refactor of the solver must reproduce it
// exactly, not just produce some valid cover.  The digest hashes each
// tree's root, edge sequence (endpoints and weight bits), node sequence and
// weight bits, at B = |M| and at the bound SolveWithMinimalBound returns —
// the tight bound where step (e) carves subtrees and step (f) matches them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/rng.h"
#include "core/canopy.h"
#include "core/coherence_graph.h"
#include "core/tree_cover.h"
#include "datasets/corpus_generator.h"
#include "datasets/spec.h"
#include "datasets/world.h"
#include "text/extraction.h"

namespace tenet {
namespace core {
namespace {

const datasets::SyntheticWorld& World() {
  static const datasets::SyntheticWorld* world =
      new datasets::SyntheticWorld(datasets::BuildWorld());
  return *world;
}

// FNV-1a over 64-bit words.
class Digest {
 public:
  void Add(uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      state_ ^= (word >> (8 * byte)) & 0xff;
      state_ *= 0x100000001b3ULL;
    }
  }
  void AddInt(int value) {
    Add(static_cast<uint64_t>(static_cast<int64_t>(value)));
  }
  void AddDouble(double value) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    Add(bits);
  }
  void AddCover(const TreeCover& cover) {
    AddInt(static_cast<int>(cover.trees.size()));
    for (const CoverTree& tree : cover.trees) {
      AddInt(tree.root);
      AddInt(static_cast<int>(tree.edges.size()));
      for (const graph::Edge& e : tree.edges) {
        AddInt(e.u);
        AddInt(e.v);
        AddDouble(e.weight);
      }
      AddInt(static_cast<int>(tree.nodes.size()));
      for (int node : tree.nodes) AddInt(node);
      AddDouble(tree.weight);
    }
  }
  uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0xcbf29ce484222325ULL;
};

struct GoldenRun {
  uint64_t digest = 0;
  int documents = 0;
  int carved = 0;   // subtrees step (e) carved at the tight bound
  int matched = 0;  // subtrees step (f) matched at the tight bound
};

GoldenRun DigestCorpus(const datasets::DatasetSpec& spec, uint64_t seed) {
  datasets::CorpusGenerator gen(&World().kb_world);
  Rng rng(seed);
  datasets::Dataset dataset = gen.Generate(spec, rng);
  text::Extractor extractor(&World().gazetteer());
  CoherenceGraphBuilder builder(&World().kb(), &World().embeddings);
  TreeCoverSolver solver;

  GoldenRun run;
  Digest digest;
  for (const datasets::Document& doc : dataset.documents) {
    CoherenceGraph cg = builder.Build(BuildMentionSet(
        extractor.ExtractFromText(doc.text), &World().gazetteer()));
    if (cg.num_mentions() == 0) continue;
    ++run.documents;
    const double paper_bound = cg.num_mentions();
    Result<TreeCover> at_paper = solver.Solve(cg, paper_bound);
    EXPECT_TRUE(at_paper.ok()) << doc.id << ": " << at_paper.status();
    if (at_paper.ok()) digest.AddCover(at_paper.value());

    Result<std::pair<double, TreeCover>> minimal =
        SolveWithMinimalBound(solver, cg, paper_bound);
    EXPECT_TRUE(minimal.ok()) << doc.id << ": " << minimal.status();
    if (!minimal.ok()) continue;
    digest.AddDouble(minimal->first);
    digest.AddCover(minimal->second);
    TreeCoverStats stats;
    EXPECT_TRUE(solver.Solve(cg, minimal->first, &stats).ok()) << doc.id;
    run.carved += stats.subtrees;
    run.matched += stats.matched_subtrees;
  }
  run.digest = digest.value();
  return run;
}

std::string Hex(uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

TEST(TreeCoverGoldenTest, NewsCoversMatchRecordedDigest) {
  datasets::DatasetSpec spec = datasets::NewsSpec();
  spec.num_docs = 24;
  GoldenRun run = DigestCorpus(spec, /*seed=*/101);
  EXPECT_EQ(run.documents, spec.num_docs);
  EXPECT_GT(run.carved, 0) << "no document reached step (e)";
  EXPECT_GT(run.matched, 0) << "no document reached step (f)";
  EXPECT_EQ(Hex(run.digest), "0xe17ece57fdf3458a");
}

TEST(TreeCoverGoldenTest, Msnbc19CoversMatchRecordedDigest) {
  datasets::DatasetSpec spec = datasets::Msnbc19Spec();
  spec.num_docs = 8;
  GoldenRun run = DigestCorpus(spec, /*seed=*/202);
  EXPECT_EQ(run.documents, spec.num_docs);
  EXPECT_GT(run.carved, 0) << "no document reached step (e)";
  EXPECT_GT(run.matched, 0) << "no document reached step (f)";
  EXPECT_EQ(Hex(run.digest), "0xf5bf33b116712bc9");
}

}  // namespace
}  // namespace core
}  // namespace tenet
