// Golden digest of the alias state across a delta chain (DESIGN.md §12,
// §15).  The default world goes through three generations built with
// KbGeneration::WithDeltas, then the last one is compacted and loaded back:
//   * gen 2 adds two entities and a predicate, with aliases on new surfaces
//     and on existing ones (one of them a predicate-only surface), flips a
//     near tie with a prior adjustment, and tombstones one entity and one
//     predicate whose surfaces survive through other concepts;
//   * gen 3 tombstones an entity gen 2 added, adjusts the near-tie surface
//     gen 2 touched into an exact tie, and puts an alias on a surface gen 2
//     composed down to nothing.
// For each KB the digest hashes every surface any of them can see, in
// sorted order, with its entity and predicate lookups (kind, id and the bit
// pattern of each prior), num_surfaces(), and the derived gazetteer's type
// and lowercase flag.  alias_dict_test compares the index with a replica
// built from the same index, so a composition error would show up on both
// sides there; this test pins the composed priors bit for bit instead.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "datasets/world.h"
#include "kb/alias_index.h"
#include "kb/delta.h"
#include "serving/kb_generation.h"

namespace tenet {
namespace serving {
namespace {

using kb::AliasIndex;
using kb::AliasPosting;

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
  void AddString(std::string_view s) {
    AddInt(static_cast<int64_t>(s.size()));
    for (char c : s) Add(static_cast<unsigned char>(c));
  }
  void AddPostings(std::span<const AliasPosting> postings) {
    AddInt(static_cast<int64_t>(postings.size()));
    for (const AliasPosting& p : postings) {
      AddInt(static_cast<int64_t>(p.concept_ref.kind));
      AddInt(p.concept_ref.id);
      uint64_t bits = 0;
      std::memcpy(&bits, &p.prior, sizeof(bits));
      Add(bits);
    }
  }
  uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0xcbf29ce484222325ULL;
};

std::string Hex(uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

// The distinct surfaces VisitPostings yields, sorted.
std::vector<std::string> VisibleSurfaces(const AliasIndex& index) {
  std::vector<std::string> surfaces;
  index.VisitPostings([&](std::string_view surface, const AliasPosting&) {
    if (surfaces.empty() || surfaces.back() != surface) {
      surfaces.emplace_back(surface);
    }
  });
  std::sort(surfaces.begin(), surfaces.end());
  surfaces.erase(std::unique(surfaces.begin(), surfaces.end()),
                 surfaces.end());
  return surfaces;
}

bool HasConcept(std::span<const AliasPosting> postings, kb::ConceptRef ref) {
  return std::any_of(postings.begin(), postings.end(),
                     [ref](const AliasPosting& p) {
                       return p.concept_ref == ref;
                     });
}

uint64_t DigestGeneration(const KbGeneration& generation,
                          std::span<const std::string> probes) {
  const AliasIndex& index = generation.kb().alias_index();
  Digest digest;
  digest.AddInt(static_cast<int64_t>(index.num_surfaces()));
  const std::vector<std::string> visible = VisibleSurfaces(index);
  digest.AddInt(static_cast<int64_t>(visible.size()));
  for (const std::string& surface : visible) digest.AddString(surface);
  for (const std::string& surface : probes) {
    digest.AddString(surface);
    digest.AddPostings(index.LookupEntities(surface));
    digest.AddPostings(index.LookupPredicates(surface));
    const text::Gazetteer::Entry* entry =
        generation.gazetteer().FindFolded(surface);
    digest.AddInt(entry == nullptr ? -1 : static_cast<int64_t>(entry->type));
    digest.AddInt(entry == nullptr ? -1 : entry->lowercase_mention ? 1 : 0);
  }
  return digest.value();
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(AliasGoldenTest, DeltaChainAndCompactionMatchRecordedDigests) {
  datasets::SyntheticWorld world = datasets::BuildWorld();
  std::shared_ptr<const KbGeneration> gen1 = KbGeneration::FromSubstrate(
      std::move(world.kb_world.kb), std::move(world.embeddings), 1);
  const AliasIndex& base = gen1->kb().alias_index();
  const std::vector<std::string> base_surfaces = VisibleSurfaces(base);

  // A near tie: the first surface whose runner-up entity holds at least
  // three quarters of the leader's prior.
  std::string near_tie;
  for (const std::string& surface : base_surfaces) {
    std::span<const AliasPosting> senses = base.LookupEntities(surface);
    if (senses.size() >= 2 && senses[1].prior < senses[0].prior &&
        senses[1].prior >= 0.75 * senses[0].prior) {
      near_tie = surface;
      break;
    }
  }
  ASSERT_FALSE(near_tie.empty());
  const AliasPosting leader = base.LookupEntities(near_tie)[0];
  const AliasPosting runner_up = base.LookupEntities(near_tie)[1];

  // The entity to tombstone: the smallest id outside the near tie with one
  // surface it shares with another concept and one that only it holds.
  kb::EntityId dead_entity = kb::kInvalidEntity;
  std::string dead_shared;
  std::string dead_only;
  for (kb::EntityId id = 0; id < gen1->kb().num_entities(); ++id) {
    const kb::ConceptRef ref = kb::ConceptRef::Entity(id);
    if (ref == leader.concept_ref || ref == runner_up.concept_ref) continue;
    std::string shared;
    std::string only;
    for (const std::string& surface : base_surfaces) {
      std::span<const AliasPosting> entities = base.LookupEntities(surface);
      if (!HasConcept(entities, ref)) continue;
      const size_t postings =
          entities.size() + base.LookupPredicates(surface).size();
      if (postings == 1 && only.empty()) only = surface;
      if (postings > 1 && shared.empty() && surface != near_tie) {
        shared = surface;
      }
    }
    if (!shared.empty() && !only.empty()) {
      dead_entity = id;
      dead_shared = shared;
      dead_only = only;
      break;
    }
  }
  ASSERT_NE(dead_entity, kb::kInvalidEntity);

  // The predicate to tombstone: the smallest id on a surface that another
  // predicate also answers to.
  kb::PredicateId dead_predicate = kb::kInvalidPredicate;
  std::string predicate_shared;
  for (const std::string& surface : base_surfaces) {
    std::span<const AliasPosting> senses = base.LookupPredicates(surface);
    if (senses.size() < 2) continue;
    for (const AliasPosting& p : senses) {
      if (dead_predicate == kb::kInvalidPredicate ||
          p.concept_ref.id < dead_predicate) {
        dead_predicate = p.concept_ref.id;
        predicate_shared = surface;
      }
    }
  }
  ASSERT_NE(dead_predicate, kb::kInvalidPredicate);
  ASSERT_TRUE(base.LookupEntities(predicate_shared).empty());

  // ---- gen 2 ----------------------------------------------------------------
  kb::DeltaBuilder delta2(gen1->kb());
  const kb::EntityId holdings = delta2.AddEntity(
      "Zelda Quarry Holdings", kb::EntityType::kOrganization, 0, 1.5);
  delta2.AddEntityAlias(holdings, "zq holdings", 0.9);
  delta2.AddEntityAlias(holdings, dead_shared, 0.4);
  const kb::EntityId castellane =
      delta2.AddEntity("Mira Castellane", kb::EntityType::kPerson, 1, 0.8);
  delta2.AddEntityAlias(castellane, predicate_shared, 0.3);
  const kb::PredicateId orbits = delta2.AddPredicate("zeta orbits", 0, 0.7);
  delta2.AddPredicateAlias(orbits, predicate_shared, 0.5);
  delta2.AdjustEntityAliasPrior(runner_up.concept_ref.id, near_tie,
                                leader.prior * 1.25);
  delta2.TombstoneEntity(dead_entity);
  delta2.TombstonePredicate(dead_predicate);
  std::vector<kb::DeltaSegment> segments2{delta2.Build()};
  Result<std::shared_ptr<const KbGeneration>> gen2 =
      gen1->WithDeltas(segments2, 2);
  ASSERT_TRUE(gen2.ok()) << gen2.status();
  const AliasIndex& index2 = (*gen2)->kb().alias_index();
  EXPECT_EQ(index2.LookupEntities(near_tie)[0].concept_ref,
            runner_up.concept_ref);
  EXPECT_TRUE(index2.LookupEntities(dead_only).empty());
  EXPECT_FALSE(HasConcept(index2.LookupEntities(dead_shared),
                          kb::ConceptRef::Entity(dead_entity)));
  EXPECT_TRUE(HasConcept(index2.LookupEntities(dead_shared),
                         kb::ConceptRef::Entity(holdings)));
  EXPECT_FALSE(HasConcept(index2.LookupPredicates(predicate_shared),
                          kb::ConceptRef::Predicate(dead_predicate)));
  EXPECT_FALSE(index2.LookupPredicates(predicate_shared).empty());
  EXPECT_TRUE(HasConcept(index2.LookupEntities(predicate_shared),
                         kb::ConceptRef::Entity(castellane)));

  // ---- gen 3 ----------------------------------------------------------------
  kb::DeltaBuilder delta3((*gen2)->kb());
  delta3.TombstoneEntity(holdings);
  // The former leader now weighs exactly what the promoted runner-up does:
  // the two priors tie bit for bit, and the stable sort keeps gen 2's order.
  delta3.AdjustEntityAliasPrior(leader.concept_ref.id, near_tie,
                                index2.LookupEntities(near_tie)[0].prior);
  delta3.AddEntityAlias(castellane, dead_only, 1.0);
  std::vector<kb::DeltaSegment> segments3{delta3.Build()};
  Result<std::shared_ptr<const KbGeneration>> gen3 =
      (*gen2)->WithDeltas(segments3, 3);
  ASSERT_TRUE(gen3.ok()) << gen3.status();
  const AliasIndex& index3 = (*gen3)->kb().alias_index();
  ASSERT_GE(index3.LookupEntities(near_tie).size(), 2u);
  EXPECT_EQ(index3.LookupEntities(near_tie)[0].prior,
            index3.LookupEntities(near_tie)[1].prior);
  EXPECT_EQ(index3.LookupEntities(near_tie)[0].concept_ref,
            runner_up.concept_ref);
  EXPECT_FALSE(HasConcept(index3.LookupEntities(dead_shared),
                          kb::ConceptRef::Entity(holdings)));
  ASSERT_EQ(index3.LookupEntities(dead_only).size(), 1u);
  EXPECT_EQ(index3.LookupEntities(dead_only)[0].concept_ref,
            kb::ConceptRef::Entity(castellane));

  // ---- compact gen 3, load it back --------------------------------------------
  const std::string kb_path = TempPath("alias_golden.tenetkb");
  const std::string emb_path = TempPath("alias_golden.tenetemb");
  ASSERT_TRUE((*gen3)->Compact(kb_path, emb_path).ok());
  Result<std::shared_ptr<const KbGeneration>> loaded =
      KbGeneration::Load(kb_path, emb_path, {}, 4);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  // Every surface any of the four KBs can see, so the ones a generation
  // dropped are probed there too.
  std::vector<std::string> probes;
  for (const KbGeneration* generation :
       {gen1.get(), gen2->get(), gen3->get(), loaded->get()}) {
    for (std::string& surface :
         VisibleSurfaces(generation->kb().alias_index())) {
      probes.push_back(std::move(surface));
    }
  }
  std::sort(probes.begin(), probes.end());
  probes.erase(std::unique(probes.begin(), probes.end()), probes.end());

  const uint64_t digest1 = DigestGeneration(*gen1, probes);
  const uint64_t digest2 = DigestGeneration(**gen2, probes);
  const uint64_t digest3 = DigestGeneration(**gen3, probes);
  const uint64_t digest_loaded = DigestGeneration(**loaded, probes);
  std::printf(
      "probes %zu; surfaces gen1 %zu, gen2 %zu, gen3 %zu, loaded %zu\n"
      "digests gen1 %s, gen2 %s, gen3 %s, loaded %s\n",
      probes.size(), base.num_surfaces(), index2.num_surfaces(),
      index3.num_surfaces(), (*loaded)->kb().alias_index().num_surfaces(),
      Hex(digest1).c_str(), Hex(digest2).c_str(), Hex(digest3).c_str(),
      Hex(digest_loaded).c_str());
  EXPECT_EQ(Hex(digest1), "0x39d7c657cc5a0f8c");
  EXPECT_EQ(Hex(digest2), "0x504c019f15cf5ecf");
  EXPECT_EQ(Hex(digest3), "0x4389480d8d6e80dd");
  EXPECT_EQ(digest_loaded, digest3);
}

}  // namespace
}  // namespace serving
}  // namespace tenet
