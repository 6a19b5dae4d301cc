// Live-KB-update suite over the serving layer (DESIGN.md §12): generation
// hot swaps under a running BatchLinkingService.  Covers the acceptance
// contract — requests pinned before a swap finish on their generation
// with byte-identical results, requests after see the delta, failed swaps
// roll back and are counted, and an embedding delta moves the links of the
// requests after its swap.
// Registered under the `kbupdate` ctest label (ASan + TSan in CI).
#include <latch>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "figure_one_world.h"
#include "kb/delta.h"
#include "kb/types.h"
#include "obs/metrics.h"
#include "serving/batch_service.h"
#include "serving/kb_generation.h"

namespace tenet {
namespace serving {
namespace {

using testing_support::BuildFigureOneWorld;
using testing_support::FigureOneWorld;

constexpr char kAcademicDoc[] =
    "Michael Jordan studied machine learning and artificial intelligence .";
constexpr char kTravelDoc[] = "Michael Jordan will visit Tokyo .";

// The ids of BuildFigureOneWorld, which survive the move of its substrate
// into a generation (deltas only append, so they stay valid there too).
struct WorldIds {
  kb::EntityId professor;
  kb::EntityId player;
  kb::EntityId brooklyn;
};

std::shared_ptr<const KbGeneration> FigureOneGeneration(
    uint64_t id, WorldIds* ids = nullptr,
    const KbGenerationOptions& options = {}) {
  FigureOneWorld world = BuildFigureOneWorld();
  if (ids != nullptr) {
    ids->professor = world.professor;
    ids->player = world.player;
    ids->brooklyn = world.brooklyn;
  }
  return KbGeneration::FromSubstrate(std::move(world.kb),
                                     std::move(world.embeddings), id,
                                     options);
}

ServingOptions UpdateTestOptions(obs::MetricsRegistry* registry,
                                 int num_threads = 2) {
  ServingOptions options;
  options.metrics = registry;
  options.num_threads = num_threads;
  options.queue_capacity = 64;
  options.overflow = QueueOverflowPolicy::kBlock;
  return options;
}

// Synchronous round trip through the asynchronous front door.
ServedResult LinkOne(BatchLinkingService& service, const std::string& text) {
  ServedResult out;
  std::latch done(1);
  Status submitted = service.Submit(text, [&out, &done](ServedResult r) {
    out = std::move(r);
    done.count_down();
  });
  EXPECT_TRUE(submitted.ok()) << submitted;
  if (!submitted.ok()) return out;
  done.wait();
  return out;
}

bool LinksEntity(const core::LinkingResult& result, kb::EntityId id) {
  for (const core::LinkedConcept& link : result.links) {
    if (link.kind == core::Mention::Kind::kNoun &&
        link.concept_ref.is_entity() && link.concept_ref.id == id) {
      return true;
    }
  }
  return false;
}

void ExpectByteIdenticalLinks(const core::LinkingResult& a,
                              const core::LinkingResult& b) {
  ASSERT_EQ(a.links.size(), b.links.size());
  for (size_t i = 0; i < a.links.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a.links[i].mention_id, b.links[i].mention_id);
    EXPECT_EQ(a.links[i].surface, b.links[i].surface);
    EXPECT_EQ(a.links[i].kind, b.links[i].kind);
    EXPECT_EQ(a.links[i].concept_ref.kind, b.links[i].concept_ref.kind);
    EXPECT_EQ(a.links[i].concept_ref.id, b.links[i].concept_ref.id);
    // EQ, not NEAR: a pinned generation must reproduce its answers
    // bit-for-bit, whatever was swapped in meanwhile.
    EXPECT_EQ(a.links[i].prior, b.links[i].prior);
  }
  EXPECT_EQ(a.isolated_mentions, b.isolated_mentions);
}

// A delta that adds "Tokyo" — a surface no base document resolves — with
// an embedding on the location axis.
std::vector<kb::DeltaSegment> TokyoDelta(const KbGeneration& base,
                                         kb::EntityId* tokyo_out = nullptr) {
  kb::DeltaBuilder builder(base.kb());
  kb::EntityId tokyo =
      builder.AddEntity("Tokyo", kb::EntityType::kLocation, 2, 5.0);
  builder.SetEmbedding(
      kb::ConceptRef::Entity(tokyo),
      std::vector<float>{0.0f, 0.1f, 1.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f});
  if (tokyo_out != nullptr) *tokyo_out = tokyo;
  std::vector<kb::DeltaSegment> segments;
  segments.push_back(builder.Build());
  return segments;
}

TEST(KbUpdateTest, PostSwapRequestsSeeTheDeltaAndMetricsPublish) {
  obs::MetricsRegistry registry;
  WorldIds ids;
  std::shared_ptr<const KbGeneration> gen1 = FigureOneGeneration(1, &ids);
  BatchLinkingService service(gen1, UpdateTestOptions(&registry));
  EXPECT_EQ(service.generation_id(), 1u);

  kb::EntityId tokyo = -1;
  Result<std::shared_ptr<const KbGeneration>> gen2 =
      gen1->WithDeltas(TokyoDelta(*gen1, &tokyo), /*id=*/2);
  ASSERT_TRUE(gen2.ok()) << gen2.status();
  EXPECT_EQ((*gen2)->delta_stats().added_entities, 1);

  ServedResult before = LinkOne(service, kTravelDoc);
  ASSERT_TRUE(before.result.ok()) << before.result.status();
  EXPECT_FALSE(LinksEntity(*before.result, tokyo))
      << "generation 1 must not know Tokyo";

  ASSERT_TRUE(service.SwapGeneration(*gen2).ok());
  EXPECT_EQ(service.generation_id(), 2u);

  ServedResult after = LinkOne(service, kTravelDoc);
  ASSERT_TRUE(after.result.ok()) << after.result.status();
  EXPECT_TRUE(LinksEntity(*after.result, tokyo))
      << "a post-swap request must see the delta";

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.generation, 2);
  EXPECT_EQ(stats.swaps_ok, 1);
  EXPECT_EQ(stats.swaps_rolled_back, 0);
  EXPECT_EQ(registry.GetGauge("tenet_kb_generation", "")->Value(), 2.0);
  EXPECT_EQ(registry.GetHistogram("tenet_kb_swap_latency_ms", "")->Count(),
            1);
}

TEST(KbUpdateTest, RequestsPinnedBeforeASwapFinishOnTheirGeneration) {
  obs::MetricsRegistry registry;
  WorldIds ids;
  std::shared_ptr<const KbGeneration> gen1 = FigureOneGeneration(1, &ids);
  // One worker: a blocked callback deterministically holds later requests
  // in the queue across the swap.
  BatchLinkingService service(gen1,
                              UpdateTestOptions(&registry, /*threads=*/1));

  kb::EntityId tokyo = -1;
  Result<std::shared_ptr<const KbGeneration>> gen2 =
      gen1->WithDeltas(TokyoDelta(*gen1, &tokyo), /*id=*/2);
  ASSERT_TRUE(gen2.ok()) << gen2.status();

  // Reference answer, fully served on generation 1.
  ServedResult reference = LinkOne(service, kTravelDoc);
  ASSERT_TRUE(reference.result.ok()) << reference.result.status();

  // Block the only worker, then queue the probe: it pins generation 1 at
  // the front door and will be *processed* only after the swap below.
  std::latch gate(1);
  std::latch blocker_done(1);
  ASSERT_TRUE(service
                  .Submit(kAcademicDoc,
                          [&gate, &blocker_done](ServedResult) {
                            gate.wait();
                            blocker_done.count_down();
                          })
                  .ok());
  ServedResult pinned;
  std::latch pinned_done(1);
  ASSERT_TRUE(service
                  .Submit(kTravelDoc,
                          [&pinned, &pinned_done](ServedResult r) {
                            pinned = std::move(r);
                            pinned_done.count_down();
                          })
                  .ok());

  // The swap lands while the probe is still queued (RCU: the pinned old
  // generation parks in its slot; the publish takes a free one).
  ASSERT_TRUE(service.SwapGeneration(*gen2).ok());
  EXPECT_EQ(service.generation_id(), 2u);

  // A request submitted after the swap sees the new generation...
  ServedResult fresh;
  std::latch fresh_done(1);
  ASSERT_TRUE(service
                  .Submit(kTravelDoc,
                          [&fresh, &fresh_done](ServedResult r) {
                            fresh = std::move(r);
                            fresh_done.count_down();
                          })
                  .ok());

  gate.count_down();
  blocker_done.wait();
  pinned_done.wait();
  fresh_done.wait();

  // ...while the queued probe finished on generation 1, byte-identical to
  // the pre-swap reference.
  ASSERT_TRUE(pinned.result.ok()) << pinned.result.status();
  ExpectByteIdenticalLinks(*reference.result, *pinned.result);
  EXPECT_FALSE(LinksEntity(*pinned.result, tokyo));
  ASSERT_TRUE(fresh.result.ok()) << fresh.result.status();
  EXPECT_TRUE(LinksEntity(*fresh.result, tokyo));
}

TEST(KbUpdateTest, FailedSwapsRollBackToTheServingGeneration) {
  obs::MetricsRegistry registry;
  std::shared_ptr<const KbGeneration> gen1 = FigureOneGeneration(1);
  BatchLinkingService service(gen1, UpdateTestOptions(&registry));

  Result<std::shared_ptr<const KbGeneration>> gen2 =
      gen1->WithDeltas(TokyoDelta(*gen1), /*id=*/2);
  ASSERT_TRUE(gen2.ok()) << gen2.status();

  // Injected mid-swap fault: the old generation keeps serving.
  {
    FaultInjector faults(11);
    faults.Arm("serving/kb_swap", 1.0);
    Status swapped = service.SwapGeneration(*gen2);
    ASSERT_FALSE(swapped.ok());
    EXPECT_EQ(swapped.code(), StatusCode::kDataLoss);
    EXPECT_EQ(faults.FireCount("serving/kb_swap"), 1);
  }
  EXPECT_EQ(service.generation_id(), 1u);
  EXPECT_EQ(service.Stats().swaps_rolled_back, 1);
  EXPECT_EQ(registry.GetGauge("tenet_kb_generation", "")->Value(), 1.0);

  // Id regression is refused the same way.
  Status regressed = service.SwapGeneration(gen1);
  ASSERT_FALSE(regressed.ok());
  EXPECT_EQ(regressed.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.Stats().swaps_rolled_back, 2);

  // The service still answers, and the clean retry lands.
  ServedResult served = LinkOne(service, kTravelDoc);
  EXPECT_TRUE(served.result.ok());
  ASSERT_TRUE(service.SwapGeneration(*gen2).ok());
  EXPECT_EQ(service.generation_id(), 2u);
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.swaps_ok, 1);
  EXPECT_EQ(stats.swaps_rolled_back, 2);
}

// The coherence near-tie across a swap: in generation 1 the academic
// context drags "Michael Jordan" to the professor despite the player's
// higher prior, and a repeat of the request links byte-identically.
// Generation 2's delta re-points the professor's embedding away from the
// academic cluster — same concept ids, different cosines — so the
// post-swap request must see the new rows and let the prior win.
TEST(KbUpdateTest, EmbeddingDeltaMovesANearTieLinkAcrossASwap) {
  obs::MetricsRegistry registry;
  WorldIds ids;
  std::shared_ptr<const KbGeneration> gen1 = FigureOneGeneration(1, &ids);
  BatchLinkingService service(gen1, UpdateTestOptions(&registry));

  ServedResult before = LinkOne(service, kAcademicDoc);
  ASSERT_TRUE(before.result.ok()) << before.result.status();
  ASSERT_TRUE(LinksEntity(*before.result, ids.professor))
      << "figure-one coherence must pick the professor in generation 1";
  ServedResult again = LinkOne(service, kAcademicDoc);
  ASSERT_TRUE(again.result.ok()) << again.result.status();
  ExpectByteIdenticalLinks(*before.result, *again.result);

  kb::DeltaBuilder builder(gen1->kb());
  builder.SetEmbedding(
      kb::ConceptRef::Entity(ids.professor),
      std::vector<float>{0.0f, 0.0f, 1.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f});
  std::vector<kb::DeltaSegment> segments{builder.Build()};
  Result<std::shared_ptr<const KbGeneration>> gen2 =
      gen1->WithDeltas(segments, /*id=*/2);
  ASSERT_TRUE(gen2.ok()) << gen2.status();
  ASSERT_TRUE(service.SwapGeneration(*gen2).ok());

  ServedResult after = LinkOne(service, kAcademicDoc);
  ASSERT_TRUE(after.result.ok()) << after.result.status();
  EXPECT_FALSE(LinksEntity(*after.result, ids.professor))
      << "a stale cosine kept the professor linked across the swap";
  EXPECT_TRUE(LinksEntity(*after.result, ids.player));
}

}  // namespace
}  // namespace serving
}  // namespace tenet
