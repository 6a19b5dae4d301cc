// Golden digest of every rung's answers.  The prior-only rung, the
// pair-link rung (entered before the graph exists and after a cover
// fault) and the Pair-Linking baseline all read the same candidate priors
// and run the same greedy sweep, so a refactor of any of them must
// reproduce each configuration's answers exactly, document for document.
// The digest hashes, per document: the links as (mention id, concept
// ref), the isolated and selected mention ids, the mode, stages_degraded
// and pairs_confirmed.  The full rung (Algorithms 1-5) is pinned the same
// way, with each link's prior bits and the bound that produced the cover,
// at the paper's bound and at a tight one where steps (e) and (f) of
// Algorithm 1 carve and match subtrees; and Algorithm 5 alone is pinned on
// the covers at B*, where trees share edges in both orientations.
// Inputs: the four standard corpora, their AdversarialMutator mutations,
// and MSNBC19-profile documents over the Huge KB, where candidate sets
// balloon and mention surfaces overflow the per-mention cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/pairlink_like.h"
#include "baselines/tenet_linker.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "core/canopy.h"
#include "core/coherence_graph.h"
#include "core/disambiguator.h"
#include "core/pipeline.h"
#include "core/tree_cover.h"
#include "datasets/adversarial.h"
#include "datasets/corpus_generator.h"
#include "datasets/spec.h"
#include "datasets/world.h"
#include "kb/synthetic_kb.h"
#include "text/extraction.h"

namespace tenet {
namespace core {
namespace {

// The documents of one world.
struct Inputs {
  const datasets::SyntheticWorld* world = nullptr;
  std::vector<datasets::Document> documents;
};

const datasets::SyntheticWorld& DefaultWorld() {
  static const datasets::SyntheticWorld* world =
      new datasets::SyntheticWorld(datasets::BuildWorld());
  return *world;
}

const datasets::SyntheticWorld& HugeWorld() {
  static const datasets::SyntheticWorld* world = [] {
    datasets::WorldOptions options;
    options.kb = kb::SyntheticKbOptions::Huge();
    return new datasets::SyntheticWorld(datasets::BuildWorld(options));
  }();
  return *world;
}

// The four corpora and their mutations over the default world, then 20
// MSNBC19-profile documents over the Huge world.
const std::vector<Inputs>& AllInputs() {
  static const std::vector<Inputs>* inputs = [] {
    auto* all = new std::vector<Inputs>(2);
    (*all)[0].world = &DefaultWorld();
    datasets::CorpusGenerator generator(&DefaultWorld().kb_world);
    Rng rng(77);
    datasets::AdversarialMutator mutator{datasets::AdversarialSpec{}};
    for (const datasets::DatasetSpec& spec :
         {datasets::NewsSpec(), datasets::TRex42Spec(), datasets::Kore50Spec(),
          datasets::Msnbc19Spec()}) {
      datasets::Dataset clean = generator.Generate(spec, rng);
      datasets::Dataset mutated = mutator.Mutate(clean);
      for (datasets::Document& doc : clean.documents) {
        (*all)[0].documents.push_back(std::move(doc));
      }
      for (datasets::Document& doc : mutated.documents) {
        (*all)[0].documents.push_back(std::move(doc));
      }
    }
    (*all)[1].world = &HugeWorld();
    datasets::CorpusGenerator huge_generator(&HugeWorld().kb_world);
    Rng huge_rng(78);
    datasets::DatasetSpec huge_spec = datasets::Msnbc19Spec();
    huge_spec.num_docs = 20;
    (*all)[1].documents =
        huge_generator.Generate(huge_spec, huge_rng).documents;
    return all;
  }();
  return *inputs;
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
  void AddInt(int64_t value) { Add(static_cast<uint64_t>(value)); }
  void AddDouble(double value) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    Add(bits);
  }
  void AddIds(const std::vector<int>& ids) {
    AddInt(static_cast<int64_t>(ids.size()));
    for (int id : ids) AddInt(id);
  }
  void AddResult(const Result<LinkingResult>& result) {
    if (!result.ok()) {
      AddInt(-1);
      AddInt(static_cast<int64_t>(result.status().code()));
      return;
    }
    AddInt(static_cast<int64_t>(result->links.size()));
    for (const LinkedConcept& link : result->links) {
      AddInt(link.mention_id);
      AddInt(link.concept_ref.is_entity() ? 0 : 1);
      AddInt(link.concept_ref.id);
    }
    AddIds(result->isolated_mentions);
    AddIds(result->selected_mentions);
    AddInt(static_cast<int64_t>(result->degradation.mode));
    AddInt(result->degradation.stages_degraded);
    AddInt(result->degradation.pairs_confirmed);
  }
  // A full-rung answer: the links with their prior bits, the isolated and
  // selected ids, the rung and the bound that produced the cover.
  void AddFullResult(const Result<LinkingResult>& result) {
    if (!result.ok()) {
      AddInt(-1);
      AddInt(static_cast<int64_t>(result.status().code()));
      return;
    }
    AddInt(static_cast<int64_t>(result->links.size()));
    for (const LinkedConcept& link : result->links) {
      AddInt(link.mention_id);
      AddInt(link.concept_ref.is_entity() ? 0 : 1);
      AddInt(link.concept_ref.id);
      AddDouble(link.prior);
    }
    AddIds(result->isolated_mentions);
    AddIds(result->selected_mentions);
    AddInt(static_cast<int64_t>(result->degradation.mode));
    AddDouble(result->used_bound);
  }
  // Algorithm 5's output: every selection in mention order, then each
  // group's winning canopy (-1 when unresolved).
  void AddGamma(const DisambiguationResult& gamma) {
    std::vector<std::pair<int, int>> selected(gamma.selected_node.begin(),
                                              gamma.selected_node.end());
    std::sort(selected.begin(), selected.end());
    AddInt(static_cast<int64_t>(selected.size()));
    for (const auto& [mention, node] : selected) {
      AddInt(mention);
      AddInt(node);
    }
    AddIds(gamma.winning_canopy);
  }
  uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0xcbf29ce484222325ULL;
};

struct GoldenRun {
  uint64_t digest = 0;
  int documents = 0;
  int by_mode[3] = {0, 0, 0};  // indexed by DegradationInfo::Mode
};

using MakeLinker = std::unique_ptr<baselines::Linker> (*)(
    const baselines::BaselineSubstrate& substrate);

// Links every input document with the linker `make` builds per world.
GoldenRun DigestAll(MakeLinker make) {
  GoldenRun run;
  Digest digest;
  for (const Inputs& inputs : AllInputs()) {
    baselines::BaselineSubstrate substrate{
        &inputs.world->kb(), &inputs.world->embeddings,
        &inputs.world->gazetteer(), {}, {}};
    std::unique_ptr<baselines::Linker> linker = make(substrate);
    for (const datasets::Document& doc : inputs.documents) {
      Result<LinkingResult> result = linker->LinkDocument(doc.text);
      digest.AddResult(result);
      ++run.documents;
      if (result.ok()) {
        ++run.by_mode[static_cast<int>(result->degradation.mode)];
      }
    }
  }
  run.digest = digest.value();
  return run;
}

std::unique_ptr<baselines::Linker> TenetWith(
    const baselines::BaselineSubstrate& substrate, TenetOptions options) {
  return std::make_unique<baselines::TenetLinker>(substrate, options);
}

std::string Hex(uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

constexpr int kDocuments = 2 * (16 + 42 + 50 + 19) + 20;

TEST(LadderGoldenTest, ExpiredDeadlinePriorOnlyMatchesRecordedDigest) {
  GoldenRun run = DigestAll([](const baselines::BaselineSubstrate& s) {
    TenetOptions options;
    options.deadline_ms = 0.0;
    return TenetWith(s, options);
  });
  EXPECT_EQ(run.documents, kDocuments);
  EXPECT_GT(run.by_mode[static_cast<int>(DegradationInfo::Mode::kPriorOnly)],
            0);
  EXPECT_EQ(run.by_mode[static_cast<int>(DegradationInfo::Mode::kPairLink)],
            0);
  EXPECT_EQ(Hex(run.digest), "0x6da842ab80ace727");
}

TEST(LadderGoldenTest, ForcedPairLinkMatchesRecordedDigest) {
  GoldenRun run = DigestAll([](const baselines::BaselineSubstrate& s) {
    TenetOptions options;
    options.pair_link.serve_always = true;
    return TenetWith(s, options);
  });
  EXPECT_EQ(run.documents, kDocuments);
  EXPECT_GT(run.by_mode[static_cast<int>(DegradationInfo::Mode::kPairLink)],
            0);
  EXPECT_EQ(Hex(run.digest), "0x11160148ba243ce6");
}

TEST(LadderGoldenTest, PairLinkAfterACoverFaultMatchesRecordedDigest) {
  // The graph is built before the fault, so the sweep reads its edges.
  FaultInjector faults(2021);
  faults.Arm("core/cover_solve", 1.0);
  GoldenRun run = DigestAll([](const baselines::BaselineSubstrate& s) {
    return TenetWith(s, TenetOptions{});
  });
  EXPECT_EQ(run.documents, kDocuments);
  EXPECT_GT(run.by_mode[static_cast<int>(DegradationInfo::Mode::kPairLink)],
            0);
  EXPECT_EQ(run.by_mode[static_cast<int>(DegradationInfo::Mode::kPriorOnly)],
            0);
  EXPECT_GT(faults.FireCount("core/cover_solve"), 0);
  EXPECT_EQ(Hex(run.digest), "0x61ca4731f1b2563a");
}

struct FullRun {
  uint64_t digest = 0;
  int documents = 0;
  int full = 0;     // documents the full rung served
  int carved = 0;   // subtrees step (e) carved, summed over documents
  int matched = 0;  // subtrees step (f) matched
};

// Links every input document through the full rung at B = bound_factor *
// |M|, growing on the failure warning per the default retry policy.
FullRun DigestFullRung(double bound_factor) {
  FullRun run;
  Digest digest;
  for (const Inputs& inputs : AllInputs()) {
    baselines::BaselineSubstrate substrate{
        &inputs.world->kb(), &inputs.world->embeddings,
        &inputs.world->gazetteer(), {}, {}};
    TenetOptions options;
    options.bound_factor = bound_factor;
    baselines::TenetLinker linker(substrate, options);
    for (const datasets::Document& doc : inputs.documents) {
      Result<LinkingResult> result = linker.LinkDocument(doc.text);
      digest.AddFullResult(result);
      ++run.documents;
      if (result.ok() &&
          result->degradation.mode == DegradationInfo::Mode::kFull) {
        ++run.full;
        run.carved += result->cover_stats.subtrees;
        run.matched += result->cover_stats.matched_subtrees;
      }
    }
  }
  run.digest = digest.value();
  return run;
}

TEST(LadderGoldenTest, FullRungAtThePaperBoundMatchesRecordedDigest) {
  FullRun run = DigestFullRung(TenetOptions{}.bound_factor);
  EXPECT_EQ(run.documents, kDocuments);
  EXPECT_EQ(run.full, kDocuments);
  EXPECT_EQ(Hex(run.digest), "0x77fe2525ef803840");
}

TEST(LadderGoldenTest, FullRungAtATightBoundMatchesRecordedDigest) {
  // At 0.05 |M| the bound retries end at bounds where step (e) carves
  // subtrees and step (f) matches them.
  FullRun run = DigestFullRung(0.05);
  EXPECT_EQ(run.documents, kDocuments);
  EXPECT_GT(run.carved, 0) << "no document reached step (e)";
  EXPECT_GT(run.matched, 0) << "no document reached step (f)";
  EXPECT_EQ(Hex(run.digest), "0x854c0d515b745acc");
}

TEST(LadderGoldenTest, DisambiguationOfMinimalBoundCoversMatchesRecordedDigest) {
  // At B* the trees of a cover share edges, some in opposite orientations,
  // so Algorithm 5's dedupe decides which orientation it sweeps.  Each
  // ablation flag is flipped once: the per-tree sweep shares that dedupe.
  const datasets::SyntheticWorld& world = DefaultWorld();
  text::Extractor extractor(&world.gazetteer());
  CoherenceGraphBuilder builder(&world.kb(), &world.embeddings);
  TreeCoverSolver solver;
  std::vector<DisambiguatorOptions> variants(4);
  variants[1].global_kruskal_order = false;
  variants[2].informative_tie_break = false;
  variants[3].early_termination = false;

  Digest digest;
  int covers = 0;
  int shared = 0;    // edges a later tree repeats
  int reversed = 0;  // ... in the opposite orientation
  for (const datasets::Document& doc : AllInputs()[0].documents) {
    CoherenceGraph cg = builder.Build(BuildMentionSet(
        extractor.ExtractFromText(doc.text), &world.gazetteer()));
    if (cg.num_mentions() == 0) continue;
    Result<std::pair<double, TreeCover>> minimal =
        SolveWithMinimalBound(solver, cg, cg.num_mentions());
    ASSERT_TRUE(minimal.ok()) << doc.id << ": " << minimal.status();
    ++covers;
    digest.AddDouble(minimal->first);
    std::map<std::pair<int, int>, int> first_u;
    for (const CoverTree& tree : minimal->second.trees) {
      for (const graph::Edge& e : tree.edges) {
        auto [it, inserted] = first_u.emplace(
            std::make_pair(std::min(e.u, e.v), std::max(e.u, e.v)), e.u);
        if (inserted) continue;
        ++shared;
        if (it->second != e.u) ++reversed;
      }
    }
    for (const DisambiguatorOptions& options : variants) {
      digest.AddGamma(Disambiguator(options).Run(cg, minimal->second));
    }
  }
  EXPECT_EQ(covers, static_cast<int>(AllInputs()[0].documents.size()));
  EXPECT_GT(shared, 0) << "no cover tree repeats an edge of another";
  EXPECT_GT(reversed, 0) << "no repeated edge flips orientation";
  EXPECT_EQ(Hex(digest.value()), "0x85ed34e6455f6ea0");
}

TEST(LadderGoldenTest, PairlinkLikeBaselineMatchesRecordedDigest) {
  GoldenRun run = DigestAll(
      [](const baselines::BaselineSubstrate& s)
          -> std::unique_ptr<baselines::Linker> {
        return std::make_unique<baselines::PairlinkLike>(s);
      });
  EXPECT_EQ(run.documents, kDocuments);
  EXPECT_EQ(Hex(run.digest), "0x75280164a206b713");
}

}  // namespace
}  // namespace core
}  // namespace tenet
