// Golden digest of every degraded answer.  The prior-only rung, the
// pair-link rung (entered before the graph exists and after a cover
// fault) and the Pair-Linking baseline all read the same candidate priors
// and run the same greedy sweep, so a refactor of any of them must
// reproduce each configuration's answers exactly, document for document.
// The digest hashes, per document: the links as (mention id, concept
// ref), the isolated and selected mention ids, the mode, stages_degraded
// and pairs_confirmed.  Inputs: the four standard corpora, their
// AdversarialMutator mutations, and MSNBC19-profile documents over the
// Huge KB, where candidate sets balloon and mention surfaces overflow the
// per-mention cap.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/pairlink_like.h"
#include "baselines/tenet_linker.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "datasets/adversarial.h"
#include "datasets/corpus_generator.h"
#include "datasets/spec.h"
#include "datasets/world.h"
#include "kb/synthetic_kb.h"

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
