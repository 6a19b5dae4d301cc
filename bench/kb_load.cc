// Snapshot-load benchmark: the TENETKB2 snapshot loaded buffered and
// zero-copy (mmap), the gazetteer derived from its alias dictionary, the
// whole KbGeneration::Load of the snapshot pair, the same snapshot with a
// stack of TENETDELTA1 segments replayed on top, and the TENETEMB1
// embedding container streamed vs mapped.  This is the number behind the
// README loading-time table.
//
// `--json <path>` writes {bench, ns_per_op, pairs_per_sec} records (the
// BENCH_kb_load.json trajectory CI archives); `--smoke` shrinks the sizes
// and repetitions for the tier-1 CI job.  Timings are best-of-N to shed
// scheduler noise.
#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "embedding/trainer.h"
#include "json_out.h"
#include "kb/delta.h"
#include "kb/io.h"
#include "kb/synthetic_kb.h"
#include "serving/kb_generation.h"
#include "text/gazetteer.h"

namespace {

using namespace tenet;

struct SizeSpec {
  const char* name;
  int num_domains;
  int entities_per_domain;
};

double ItemCount(const kb::KnowledgeBase& kb) {
  return static_cast<double>(kb.num_entities()) + kb.num_predicates() +
         kb.alias_index().num_surfaces() + kb.num_facts();
}

// Best-of-`reps` wall time of one load variant, in milliseconds.  `load`
// returns the Result so the store is fully materialized and finalized
// inside the timed window, while its destruction happens outside it —
// tearing a KB down is not part of loading one.
template <typename LoadFn>
double BestMillis(int reps, LoadFn&& load) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    auto loaded = load();
    double ms = timer.ElapsedMillis();
    if (!loaded.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   loaded.status().ToString().c_str());
      std::exit(1);
    }
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonArgs json_args = bench::StripJsonArgs(&argc, argv);

  std::vector<SizeSpec> sizes = {
      {"small", 4, 50}, {"medium", 12, 200}, {"large", 30, 400}};
  int reps = 5;
  if (json_args.smoke) {
    sizes = {{"small", 4, 50}};
    reps = 2;
  }

  std::vector<bench::JsonRecord> records;
  std::printf("%-8s %-16s %12s %12s\n", "size", "variant", "ms", "items/s");
  for (const SizeSpec& size : sizes) {
    kb::SyntheticKbOptions kb_options;
    kb_options.num_domains = size.num_domains;
    kb_options.entities_per_domain = size.entities_per_domain;
    Rng rng(2021);
    kb::SyntheticKb world = kb::SyntheticKbGenerator(kb_options).Generate(rng);

    const std::string bin_path =
        std::string("bench_kb_load_") + size.name + ".tenetkb";
    const std::string emb_path =
        std::string("bench_kb_load_") + size.name + ".tenetemb";
    if (!kb::SaveKnowledgeBase(world.kb, bin_path).ok()) {
      std::fprintf(stderr, "saving %s KB failed\n", size.name);
      return 1;
    }
    embedding::TrainerOptions trainer_options;
    Rng emb_rng(7);
    embedding::EmbeddingStore embeddings =
        embedding::StructuralEmbeddingTrainer(trainer_options)
            .Train(world.kb, emb_rng);
    if (!kb::SaveEmbeddings(embeddings, emb_path).ok()) {
      std::fprintf(stderr, "saving %s embeddings failed\n", size.name);
      return 1;
    }

    const double items = ItemCount(world.kb);
    for (bool prefer_mmap : {false, true}) {
      kb::KbLoadOptions options;
      options.prefer_mmap = prefer_mmap;
      double ms = BestMillis(reps, [&bin_path, &options] {
        return kb::LoadKnowledgeBase(bin_path, options);
      });
      const char* name = prefer_mmap ? "binary_mmap" : "binary";
      std::printf("%-8s %-16s %12.3f %12.0f\n", size.name, name, ms,
                  items / (ms / 1e3));
      records.push_back(bench::JsonRecord{
          std::string("kb_load/") + name + "/" + size.name, ms * 1e6,
          items / (ms / 1e3)});
    }

    // The rest of a generation's set-up: the spotter's gazetteer derived
    // from the loaded KB's alias dictionary, then the whole
    // KbGeneration::Load (both loads, the derivation and the linker).
    {
      Result<kb::KnowledgeBase> loaded = kb::LoadKnowledgeBase(bin_path);
      if (!loaded.ok()) {
        std::fprintf(stderr, "loading %s KB failed\n", size.name);
        return 1;
      }
      const double surfaces =
          static_cast<double>(loaded->alias_index().num_surfaces());
      double ms = BestMillis(reps, [&loaded] {
        return Result<text::Gazetteer>(kb::DeriveGazetteer(*loaded));
      });
      std::printf("%-8s %-16s %12.3f %12.0f\n", size.name,
                  "derive_gazetteer", ms, surfaces / (ms / 1e3));
      records.push_back(bench::JsonRecord{
          std::string("kb_load/derive_gazetteer/") + size.name, ms * 1e6,
          surfaces / (ms / 1e3)});
      ms = BestMillis(reps, [&bin_path, &emb_path] {
        return serving::KbGeneration::Load(bin_path, emb_path, {},
                                           /*id=*/1);
      });
      std::printf("%-8s %-16s %12.3f %12.0f\n", size.name, "generation", ms,
                  items / (ms / 1e3));
      records.push_back(bench::JsonRecord{
          std::string("kb_load/generation/") + size.name, ms * 1e6,
          items / (ms / 1e3)});
    }

    // Delta replay (DESIGN.md §12): the live-update cold-start path —
    // binary snapshot + embeddings + a stack of TENETDELTA1 segments
    // loaded, validated and folded in.  The column quantifies the replay
    // tax an updater pays before compaction catches up.
    constexpr int kDeltaSegments = 8;
    constexpr int kEntitiesPerSegment = 16;
    std::vector<std::string> delta_paths;
    {
      Rng delta_rng(1789);
      const int dim = embeddings.dimension();
      int32_t entities = world.kb.num_entities();
      const int32_t predicates = world.kb.num_predicates();
      for (int s = 0; s < kDeltaSegments; ++s) {
        kb::DeltaBuilder builder(entities, predicates);
        for (int e = 0; e < kEntitiesPerSegment; ++e) {
          std::string label = std::string("delta entity ") + size.name + " " +
                              std::to_string(s) + "-" + std::to_string(e);
          kb::EntityId id = builder.AddEntity(
              label, static_cast<kb::EntityType>(e % kb::kNumEntityTypes));
          builder.AddEntityAlias(id, label + " alias", 1.0);
          std::vector<float> row(static_cast<size_t>(dim));
          for (float& v : row) {
            v = static_cast<float>(delta_rng.NextGaussian());
          }
          builder.SetEmbedding(kb::ConceptRef::Entity(id), row);
        }
        entities = builder.num_entities();
        std::string path = std::string("bench_kb_load_") + size.name +
                           ".delta" + std::to_string(s) + ".tenetdelta";
        if (!builder.Write(path).ok()) {
          std::fprintf(stderr, "writing %s failed\n", path.c_str());
          return 1;
        }
        delta_paths.push_back(std::move(path));
      }
    }
    {
      double ms = BestMillis(reps, [&]() -> Result<kb::AppliedDelta> {
        TENET_ASSIGN_OR_RETURN(kb::KnowledgeBase kb,
                               kb::LoadKnowledgeBase(bin_path));
        TENET_ASSIGN_OR_RETURN(embedding::EmbeddingStore store,
                               kb::LoadEmbeddings(emb_path));
        std::vector<kb::DeltaSegment> segments;
        segments.reserve(delta_paths.size());
        for (const std::string& path : delta_paths) {
          TENET_ASSIGN_OR_RETURN(kb::DeltaSegment segment,
                                 kb::LoadDeltaSegment(path));
          segments.push_back(std::move(segment));
        }
        return kb::ApplyDeltas(kb, store, segments);
      });
      std::printf("%-8s %-16s %12.3f %12.0f\n", size.name, "delta_replay",
                  ms, items / (ms / 1e3));
      records.push_back(bench::JsonRecord{
          std::string("kb_load/delta_replay/") + size.name, ms * 1e6,
          items / (ms / 1e3)});
    }

    const double emb_items = static_cast<double>(world.kb.num_entities()) +
                             world.kb.num_predicates();
    for (bool prefer_mmap : {false, true}) {
      kb::KbLoadOptions options;
      options.prefer_mmap = prefer_mmap;
      double ms = BestMillis(reps, [&emb_path, &options] {
        return kb::LoadEmbeddings(emb_path, options);
      });
      const char* name = prefer_mmap ? "emb_mmap" : "emb_stream";
      std::printf("%-8s %-16s %12.3f %12.0f\n", size.name, name, ms,
                  emb_items / (ms / 1e3));
      records.push_back(bench::JsonRecord{
          std::string("emb_load/") + (prefer_mmap ? "mmap" : "stream") + "/" +
              size.name,
          ms * 1e6, emb_items / (ms / 1e3)});
    }

    std::remove(bin_path.c_str());
    std::remove(emb_path.c_str());
    for (const std::string& path : delta_paths) std::remove(path.c_str());
  }

  if (!json_args.json_path.empty() &&
      !bench::WriteJsonRecords(json_args.json_path, records)) {
    return 1;
  }
  return 0;
}
