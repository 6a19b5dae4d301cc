// tenet_cli — command-line front-end of the TENET library.
//
//   tenet_cli build-world [--seed N] [--kb PATH] [--emb PATH]
//       Generates the synthetic world and persists the KB + embeddings.
//
//   tenet_cli link --kb PATH --emb PATH [--text "..."] [--candidates K]
//             [--deadline-ms MS] [--trace]
//       Links a document (from --text or stdin) against a persisted world
//       (loaded as a KbGeneration, which rejects a pair whose concept
//       counts disagree) and prints the linked concepts and emerging
//       entities.  With a deadline, an over-budget document degrades to
//       prior-only linking (reported on stderr) instead of failing.
//       --trace prints the request's span tree (stages, cover retries,
//       degradation rungs) on stderr.
//
//   tenet_cli demo [--seed N]
//       One-shot: builds the world in memory and links stdin.
//
//   tenet_cli dump-corpora [--seed N]
//       Generates the four evaluation corpora and writes them as
//       News.tenetds, T-REx42.tenetds, KORE50.tenetds, MSNBC19.tenetds.
//
//   tenet_cli eval [--seed N] [--threads N] [--deadline-ms MS]
//             [--scenario clean|adversarial|sessions] [--frontier]
//             [--metrics-out FILE] [--kb-update-every N]
//       Builds the synthetic world, generates the evaluation corpora and
//       scores TENET end-to-end on each.  With --threads N > 1 the batch
//       is served through the concurrent BatchLinkingService.  Exits
//       non-zero when any document *crashed* — failed for a reason other
//       than a deliberate guardrail rejection — listing each failure.
//       --scenario picks the workload (DESIGN.md §13): `clean` is the
//       paper's four corpora; `adversarial` runs the same corpora through
//       the seeded hostile mutator (typos, homoglyphs, ambiguity storms,
//       oversized tokens, invalid UTF-8) and reports what the guardrails
//       rejected/truncated; `sessions` replays multi-turn conversations
//       through a serving::SessionContext and scores the same turns with
//       and without session state.
//       --frontier sweeps the accuracy/latency frontier of the degradation
//       ladder (DESIGN.md §16): every corpus is scored three times — full
//       TENET, the pair-link rung forced (PairLinkOptions::serve_always),
//       and prior-only (expired budget).  Combine with
//       --scenario adversarial for the hostile tier; run both scenarios to
//       chart the whole frontier.
//       --metrics-out writes the run's metrics registry to FILE in
//       Prometheus text format (JSON when FILE ends in .json).
//       --kb-update-every N is the live-update drill (DESIGN.md §12): the
//       run serves through a generation-aware service and hot-swaps in a
//       fresh delta generation after every N documents while the batch is
//       in flight.  The drill's deltas only add concepts no corpus
//       mentions, so scores are unchanged; the swap/rollback accounting is
//       reported afterwards.
//
//   tenet_cli kb inspect [--kb PATH] [--emb PATH]
//       Prints the logical counts, the section table and the alias
//       dictionary's footprint of a TENETKB2 snapshot without
//       materializing it, plus the embedding header when --emb is given.
//       Validates the same header/section invariants as the loader.
//
//   tenet_cli kb delta --kb PATH --emb PATH --out PATH [--seed N]
//             [--add-entities N]
//       Builds a synthetic TENETDELTA1 segment against the given snapshot
//       pair: N fresh entities, each with an extra alias and an embedding
//       row.  Only the snapshot headers are read (the delta needs the
//       concept counts and the embedding dimension, not the data).  The
//       segment is written atomically; apply it with `kb merge` or serve
//       it live via KbGeneration.
//
//   tenet_cli kb merge --kb PATH --emb PATH --delta PATH [--delta PATH...]
//             --out-kb PATH --out-emb PATH
//       Compaction: loads the snapshot pair, applies the delta segments in
//       order, and persists the merged substrate as a fresh
//       TENETKB2/TENETEMB1 pair (both writes atomic).  Prints what the
//       apply did.
//
// All numeric flags are parsed strictly: "--threads 4x" is an error (exit
// code 2 + usage), not silently 4.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/tenet_linker.h"
#include "core/link_context.h"
#include "core/pipeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "datasets/world.h"
#include "datasets/adversarial.h"
#include "datasets/corpus_generator.h"
#include "datasets/io.h"
#include "datasets/session_generator.h"
#include "common/string_util.h"
#include "eval/harness.h"
#include "kb/delta.h"
#include "kb/io.h"
#include "kb/types.h"
#include "serving/batch_service.h"
#include "serving/kb_generation.h"

using namespace tenet;

namespace {

struct Args {
  std::string command;
  std::string subcommand;  // of "kb": inspect, delta or merge
  uint64_t seed = 2021;
  std::string kb_path = "world.tenetkb";
  std::string emb_path = "world.tenetemb";
  bool emb_path_set = false;
  std::optional<std::string> document_text;
  int candidates = 4;
  double deadline_ms = std::numeric_limits<double>::infinity();
  int threads = 1;
  std::optional<std::string> metrics_out;
  bool trace = false;
  // kb delta / kb merge / eval --kb-update-every.
  std::string out_path = "update.tenetdelta";
  std::vector<std::string> delta_paths;
  std::string out_kb_path = "merged.tenetkb";
  std::string out_emb_path = "merged.tenetemb";
  int add_entities = 8;
  int kb_update_every = 0;
  std::string scenario = "clean";
  bool frontier = false;
};

// Strict integer flag: the whole value must parse (no "4x", no empty), and
// it must lie in [min, max].  Anything else fails the parse -> exit 2.
bool ParseIntFlag(const char* flag, const char* value, int64_t min,
                  int64_t max, int64_t* out) {
  Result<int64_t> parsed = ParseInt64(value);
  if (!parsed.ok() || *parsed < min || *parsed > max) {
    std::fprintf(stderr, "%s expects an integer in [%lld, %lld], got: %s\n",
                 flag, static_cast<long long>(min),
                 static_cast<long long>(max), value);
    return false;
  }
  *out = *parsed;
  return true;
}

std::optional<Args> Parse(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args args;
  args.command = argv[1];
  int first_flag = 2;
  if (args.command == "kb") {
    if (argc < 3) return std::nullopt;
    args.subcommand = argv[2];
    if (args.subcommand != "inspect" && args.subcommand != "delta" &&
        args.subcommand != "merge") {
      std::fprintf(stderr, "unknown kb subcommand: %s\n",
                   args.subcommand.c_str());
      return std::nullopt;
    }
    first_flag = 3;
  }
  for (int i = first_flag; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--seed") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      int64_t seed = 0;
      if (!ParseIntFlag("--seed", v, 0,
                        std::numeric_limits<int64_t>::max(), &seed)) {
        return std::nullopt;
      }
      args.seed = static_cast<uint64_t>(seed);
    } else if (flag == "--kb") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      args.kb_path = v;
    } else if (flag == "--emb") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      args.emb_path = v;
      args.emb_path_set = true;
    } else if (flag == "--text") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      args.document_text = std::string(v);
    } else if (flag == "--candidates") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      int64_t candidates = 0;
      if (!ParseIntFlag("--candidates", v, 1,
                        std::numeric_limits<int>::max(), &candidates)) {
        return std::nullopt;
      }
      args.candidates = static_cast<int>(candidates);
    } else if (flag == "--deadline-ms") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      Result<double> deadline = ParseFloat64(v);
      if (!deadline.ok() || *deadline < 0.0) {
        std::fprintf(stderr,
                     "--deadline-ms expects a non-negative number, got: %s\n",
                     v);
        return std::nullopt;
      }
      args.deadline_ms = *deadline;
    } else if (flag == "--threads") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      int64_t threads = 0;
      if (!ParseIntFlag("--threads", v, 1, 4096, &threads)) {
        return std::nullopt;
      }
      args.threads = static_cast<int>(threads);
    } else if (flag == "--metrics-out") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      args.metrics_out = std::string(v);
    } else if (flag == "--out") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      args.out_path = v;
    } else if (flag == "--delta") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      args.delta_paths.push_back(v);
    } else if (flag == "--out-kb") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      args.out_kb_path = v;
    } else if (flag == "--out-emb") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      args.out_emb_path = v;
    } else if (flag == "--add-entities") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      int64_t n = 0;
      if (!ParseIntFlag("--add-entities", v, 1, 1 << 20, &n)) {
        return std::nullopt;
      }
      args.add_entities = static_cast<int>(n);
    } else if (flag == "--kb-update-every") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      int64_t n = 0;
      if (!ParseIntFlag("--kb-update-every", v, 1,
                        std::numeric_limits<int>::max(), &n)) {
        return std::nullopt;
      }
      args.kb_update_every = static_cast<int>(n);
    } else if (flag == "--scenario") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      args.scenario = v;
      if (args.scenario != "clean" && args.scenario != "adversarial" &&
          args.scenario != "sessions") {
        std::fprintf(stderr,
                     "--scenario expects clean, adversarial or sessions, "
                     "got: %s\n",
                     v);
        return std::nullopt;
      }
    } else if (flag == "--frontier") {
      args.frontier = true;
    } else if (flag == "--trace") {
      args.trace = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return std::nullopt;
    }
  }
  return args;
}

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  tenet_cli build-world [--seed N] [--kb PATH] [--emb PATH]\n"
      "  tenet_cli link --kb PATH --emb PATH [--text \"...\"] "
      "[--candidates K] [--deadline-ms MS] [--trace]\n"
      "  tenet_cli demo [--seed N]\n"
      "  tenet_cli dump-corpora [--seed N]\n"
      "  tenet_cli eval [--seed N] [--threads N] [--deadline-ms MS] "
      "[--scenario clean|adversarial|sessions] [--frontier] "
      "[--metrics-out FILE] [--kb-update-every N]\n"
      "  tenet_cli kb inspect [--kb PATH] [--emb PATH]\n"
      "  tenet_cli kb delta --kb PATH --emb PATH --out PATH [--seed N] "
      "[--add-entities N]\n"
      "  tenet_cli kb merge --kb PATH --emb PATH --delta PATH "
      "[--delta PATH...] --out-kb PATH --out-emb PATH\n");
}

std::string ReadStdin() {
  std::string text;
  std::string line;
  while (std::getline(std::cin, line)) {
    text += line;
    text += ' ';
  }
  return text;
}

int LinkAndPrint(const kb::KnowledgeBase& knowledge_base,
                 const embedding::EmbeddingStore& embeddings,
                 const text::Gazetteer& gazetteer, const Args& args) {
  core::TenetOptions options;
  options.graph.max_candidates_per_mention = args.candidates;
  options.deadline_ms = args.deadline_ms;
  core::TenetPipeline tenet(&knowledge_base, &embeddings, &gazetteer,
                            options);
  std::string document =
      args.document_text.has_value() ? *args.document_text : ReadStdin();
  obs::Trace trace;
  core::LinkContext context;
  if (args.trace) context.trace = &trace;
  Result<core::LinkingResult> result = tenet.LinkDocument(document, context);
  if (args.trace) {
    std::fprintf(stderr, "%s", trace.Render().c_str());
  }
  if (!result.ok()) {
    std::fprintf(stderr, "linking failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  for (const core::LinkedConcept& link : result->links) {
    if (link.kind == core::Mention::Kind::kNoun) {
      std::printf("entity\t%s\t%s\t%.3f\n", link.surface.c_str(),
                  knowledge_base.entity(link.concept_ref.id).label.c_str(),
                  link.prior);
    } else {
      std::printf(
          "predicate\t%s\t%s\t%.3f\n", link.surface.c_str(),
          knowledge_base.predicate(link.concept_ref.id).label.c_str(),
          link.prior);
    }
  }
  for (int m : result->isolated_mentions) {
    std::printf("emerging\t%s\t-\t-\n",
                result->mentions.mention(m).surface.c_str());
  }
  std::fprintf(stderr,
               "linked %zu mentions (%zu emerging) in %.2f ms "
               "(extract %.2f, graph %.2f, cover %.2f, disambiguate %.2f)\n",
               result->links.size(), result->isolated_mentions.size(),
               result->timings.TotalMs(), result->timings.extract_ms,
               result->timings.graph_ms, result->timings.cover_ms,
               result->timings.disambiguate_ms);
  if (result->degradation.degraded()) {
    std::fprintf(stderr, "degraded to %s (%d stages skipped): %s\n",
                 std::string(
                     core::DegradationModeToString(result->degradation.mode))
                     .c_str(),
                 result->degradation.stages_degraded,
                 result->degradation.reason.c_str());
  }
  return 0;
}

int CmdBuildWorld(const Args& args) {
  datasets::WorldOptions options;
  options.seed = args.seed;
  datasets::SyntheticWorld world = datasets::BuildWorld(options);
  Status kb_status = kb::SaveKnowledgeBase(world.kb(), args.kb_path);
  if (!kb_status.ok()) {
    std::fprintf(stderr, "%s\n", kb_status.ToString().c_str());
    return 1;
  }
  Status emb_status = kb::SaveEmbeddings(world.embeddings, args.emb_path);
  if (!emb_status.ok()) {
    std::fprintf(stderr, "%s\n", emb_status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%d entities, %d predicates, %d facts) and %s\n",
              args.kb_path.c_str(), world.kb().num_entities(),
              world.kb().num_predicates(), world.kb().num_facts(),
              args.emb_path.c_str());
  return 0;
}

int CmdKbInspect(const Args& args) {
  Result<kb::KbFileInfo> info = kb::InspectKnowledgeBaseFile(args.kb_path);
  if (!info.ok()) {
    std::fprintf(stderr, "%s: %s\n", args.kb_path.c_str(),
                 info.status().ToString().c_str());
    return 1;
  }
  std::printf("%s: TENETKB2, %llu bytes\n", args.kb_path.c_str(),
              static_cast<unsigned long long>(info->file_bytes));
  std::printf("  entities %lld, predicates %lld, aliases %lld, facts %lld\n",
              static_cast<long long>(info->entities),
              static_cast<long long>(info->predicates),
              static_cast<long long>(info->aliases),
              static_cast<long long>(info->facts));
  for (const kb::KbSectionInfo& section : info->sections) {
    std::printf("  section %-12s %10llu bytes, %llu items\n",
                section.name.c_str(),
                static_cast<unsigned long long>(section.bytes),
                static_cast<unsigned long long>(section.items));
  }
  const double bits_per_surface =
      info->dict_surfaces > 0
          ? 8.0 * static_cast<double>(info->dict_key_bytes) /
                static_cast<double>(info->dict_surfaces)
          : 0.0;
  std::printf("  alias dict %llu surfaces, keys %llu -> %llu bytes "
              "(%.1f bits/surface), %lld postings\n",
              static_cast<unsigned long long>(info->dict_surfaces),
              static_cast<unsigned long long>(info->dict_raw_key_bytes),
              static_cast<unsigned long long>(info->dict_key_bytes),
              bits_per_surface, static_cast<long long>(info->aliases));
  if (args.emb_path_set) {
    Result<kb::EmbFileInfo> emb = kb::InspectEmbeddingsFile(args.emb_path);
    if (!emb.ok()) {
      std::fprintf(stderr, "%s: %s\n", args.emb_path.c_str(),
                   emb.status().ToString().c_str());
      return 1;
    }
    std::printf("%s: TENETEMB1, %llu bytes, dim %d, %d entities, "
                "%d predicates\n",
                args.emb_path.c_str(),
                static_cast<unsigned long long>(emb->file_bytes),
                emb->dimension, emb->entities, emb->predicates);
  }
  return 0;
}

int CmdKbDelta(const Args& args) {
  // The builder only needs the base id space and the embedding dimension —
  // both live in the snapshot headers, so a delta against a huge KB costs
  // two header reads, not a load.
  Result<kb::KbFileInfo> info = kb::InspectKnowledgeBaseFile(args.kb_path);
  if (!info.ok()) {
    std::fprintf(stderr, "%s: %s\n", args.kb_path.c_str(),
                 info.status().ToString().c_str());
    return 1;
  }
  Result<kb::EmbFileInfo> emb = kb::InspectEmbeddingsFile(args.emb_path);
  if (!emb.ok()) {
    std::fprintf(stderr, "%s: %s\n", args.emb_path.c_str(),
                 emb.status().ToString().c_str());
    return 1;
  }
  if (emb->entities != info->entities ||
      emb->predicates != info->predicates) {
    std::fprintf(stderr, "KB and embeddings disagree on concept counts\n");
    return 1;
  }

  kb::DeltaBuilder builder(static_cast<int32_t>(info->entities),
                           static_cast<int32_t>(info->predicates));
  Rng rng(args.seed);
  for (int i = 0; i < args.add_entities; ++i) {
    std::string label = "delta entity " + std::to_string(args.seed) + "-" +
                        std::to_string(i);
    kb::EntityId id = builder.AddEntity(
        label, static_cast<kb::EntityType>(i % kb::kNumEntityTypes),
        /*domain=*/0, /*popularity=*/1.0 + rng.NextDouble());
    builder.AddEntityAlias(id, label + " (alias)", 1.0);
    std::vector<float> row(emb->dimension);
    for (float& v : row) v = static_cast<float>(rng.NextGaussian());
    builder.SetEmbedding(kb::ConceptRef::Entity(id), row);
  }
  Status written = builder.Write(args.out_path);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu records: %d entities with aliases + "
              "embeddings over base %lld/%lld)\n",
              args.out_path.c_str(), builder.num_records(),
              args.add_entities, static_cast<long long>(info->entities),
              static_cast<long long>(info->predicates));
  return 0;
}

int CmdKbMerge(const Args& args) {
  if (args.delta_paths.empty()) {
    std::fprintf(stderr, "kb merge needs at least one --delta segment\n");
    return 2;
  }
  Result<std::shared_ptr<const serving::KbGeneration>> merged =
      serving::KbGeneration::Load(args.kb_path, args.emb_path,
                                  args.delta_paths, /*id=*/1);
  if (!merged.ok()) {
    std::fprintf(stderr, "%s\n", merged.status().ToString().c_str());
    return 1;
  }
  const kb::DeltaApplyStats& stats = (*merged)->delta_stats();
  std::fprintf(stderr,
               "applied %zu segment(s): +%lld entities, +%lld predicates, "
               "+%lld aliases, %lld prior adjustments, %lld tombstones, "
               "+%lld facts (%lld dropped), %lld embedding rows, "
               "%lld surfaces renormalized\n",
               args.delta_paths.size(),
               static_cast<long long>(stats.added_entities),
               static_cast<long long>(stats.added_predicates),
               static_cast<long long>(stats.added_aliases),
               static_cast<long long>(stats.adjusted_priors),
               static_cast<long long>(stats.tombstones),
               static_cast<long long>(stats.added_facts),
               static_cast<long long>(stats.dropped_facts),
               static_cast<long long>(stats.set_embeddings),
               static_cast<long long>(stats.touched_surfaces));
  Status compacted =
      (*merged)->Compact(args.out_kb_path, args.out_emb_path);
  if (!compacted.ok()) {
    std::fprintf(stderr, "%s\n", compacted.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%d entities, %d predicates, %d facts) and %s\n",
              args.out_kb_path.c_str(), (*merged)->kb().num_entities(),
              (*merged)->kb().num_predicates(),
              (*merged)->kb().num_facts(), args.out_emb_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Args> args = Parse(argc, argv);
  if (!args.has_value()) {
    PrintUsage();
    return 2;
  }

  if (args->command == "build-world") {
    return CmdBuildWorld(*args);
  }

  if (args->command == "kb") {
    if (args->subcommand == "delta") return CmdKbDelta(*args);
    if (args->subcommand == "merge") return CmdKbMerge(*args);
    return CmdKbInspect(*args);
  }

  if (args->command == "link") {
    Result<std::shared_ptr<const serving::KbGeneration>> generation =
        serving::KbGeneration::Load(args->kb_path, args->emb_path,
                                    /*delta_paths=*/{}, /*id=*/1);
    if (!generation.ok()) {
      std::fprintf(stderr, "%s\n", generation.status().ToString().c_str());
      return 1;
    }
    return LinkAndPrint((*generation)->kb(), (*generation)->embeddings(),
                        (*generation)->gazetteer(), *args);
  }

  if (args->command == "dump-corpora") {
    datasets::WorldOptions options;
    options.seed = args->seed;
    datasets::SyntheticWorld world = datasets::BuildWorld(options);
    datasets::CorpusGenerator generator(&world.kb_world);
    Rng rng(77);  // the bench corpus seed
    for (const datasets::DatasetSpec& spec :
         {datasets::NewsSpec(), datasets::TRex42Spec(),
          datasets::Kore50Spec(), datasets::Msnbc19Spec()}) {
      datasets::Dataset dataset = generator.Generate(spec, rng);
      std::string path = dataset.name + ".tenetds";
      Status status = datasets::SaveDataset(dataset, path);
      if (!status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return 1;
      }
      std::printf("wrote %s (%zu documents)\n", path.c_str(),
                  dataset.documents.size());
    }
    return 0;
  }

  if (args->command == "eval") {
    datasets::WorldOptions options;
    options.seed = args->seed;
    datasets::SyntheticWorld world = datasets::BuildWorld(options);
    core::TenetOptions tenet_options;
    tenet_options.deadline_ms = args->deadline_ms;

    // The corpora are generated up front — in spec order off one rng, so
    // the documents are byte-identical to the per-spec loop's — because
    // the live drill below consumes the world's KB before evaluating.
    datasets::CorpusGenerator generator(&world.kb_world);
    Rng rng(77);  // the bench corpus seed
    std::vector<datasets::Dataset> corpora;
    if (args->scenario != "sessions") {
      for (const datasets::DatasetSpec& spec :
           {datasets::NewsSpec(), datasets::TRex42Spec(),
            datasets::Kore50Spec(), datasets::Msnbc19Spec()}) {
        corpora.push_back(generator.Generate(spec, rng));
      }
    }
    if (args->scenario == "adversarial") {
      // Same documents, hostile surface: the seeded mutator layers every
      // mutation class over the clean corpora.  Gold is untouched — the
      // recall/precision drop under noise is the measurement.
      datasets::AdversarialSpec adv_spec;
      adv_spec.seed ^= args->seed;
      datasets::AdversarialMutator mutator(adv_spec);
      for (datasets::Dataset& dataset : corpora) {
        datasets::MutationStats stats;
        dataset = mutator.Mutate(dataset, &stats);
        std::fprintf(stderr,
                     "%s mutations: %d typo words, %d ocr words, "
                     "%d homoglyph words, %d near-dup docs, %d storm docs, "
                     "%d punctuation docs, %d oversized-token docs, "
                     "%d invalid-utf8 docs\n",
                     dataset.name.c_str(), stats.typo_words, stats.ocr_words,
                     stats.homoglyph_words, stats.near_duplicate_docs,
                     stats.ambiguity_storm_docs, stats.punctuation_docs,
                     stats.oversized_token_docs, stats.invalid_utf8_docs);
      }
    }

    int total_crashed = 0;
    std::printf("%-12s %-23s %-23s %-15s %s\n", "dataset", "entity P/R/F",
                "relation P/R/F", "p50/p99 ms", "documents");
    auto report = [&total_crashed](const eval::SystemScores& scores,
                                   const std::string& name) {
      // FormatLatencyMs renders the empty-sample NaN sentinel as "n/a"
      // instead of a fake 0.00.
      std::string latency = eval::FormatLatencyMs(scores.latency_p50_ms) +
                            "/" +
                            eval::FormatLatencyMs(scores.latency_p99_ms);
      std::printf(
          "%-12s %-23s %-23s %-15s %s | rejected %d | total %.1f ms | "
          "wall %.1f ms\n",
          name.c_str(), eval::FormatPRF(scores.entity_linking).c_str(),
          eval::FormatPRF(scores.relation_linking).c_str(), latency.c_str(),
          eval::FormatDegradation(scores).c_str(), scores.rejected_documents,
          scores.total_ms, scores.wall_ms);
      for (const eval::DocumentFailure& failure : scores.failures) {
        std::fprintf(stderr, "failed document %s: %s\n",
                     failure.doc_id.c_str(),
                     failure.status.ToString().c_str());
      }
      total_crashed += scores.CrashedDocuments();
    };

    if (args->scenario == "sessions") {
      // Session replay: identical turns scored twice — once through a
      // per-conversation SessionContext, once in isolation.  The gap is
      // the value of session state.
      baselines::TenetLinker tenet(
          baselines::BaselineSubstrate{&world.kb(), &world.embeddings,
                                       &world.gazetteer(), {}, {}},
          tenet_options);
      datasets::SessionGenerator session_generator(&world.kb_world);
      datasets::SessionSpec session_spec;
      session_spec.seed ^= args->seed;
      datasets::SessionDataset sessions =
          session_generator.Generate(session_spec, rng);
      eval::SessionEvalOptions with_context;
      eval::SystemScores context_scores =
          eval::EvaluateSessions(tenet, world.kb(), sessions, with_context);
      report(context_scores, "Sessions");
      std::fprintf(stderr,
                   "session layer: %d links re-ranked to memory, "
                   "%d isolated mentions resolved (%d sessions, %d turns)\n",
                   context_scores.session_relinked,
                   context_scores.session_isolated_resolved,
                   static_cast<int>(sessions.sessions.size()),
                   sessions.TotalTurns());
      eval::SessionEvalOptions isolated;
      isolated.use_session_context = false;
      report(eval::EvaluateSessions(tenet, world.kb(), sessions, isolated),
             "Sessions-iso");
    } else if (args->frontier) {
      // Frontier sweep (DESIGN.md §16): the same corpora scored once per
      // ladder rung, so the accuracy each approximation gives up is
      // measured against the latency it buys.  The pair-link row forces
      // PairLinkOptions::serve_always; the prior-only row expires the
      // budget at entry.
      struct RungConfig {
        const char* name;
        core::TenetOptions options;
      };
      std::vector<RungConfig> rungs;
      rungs.push_back({"full", tenet_options});
      {
        core::TenetOptions pair = tenet_options;
        pair.pair_link.serve_always = true;
        rungs.push_back({"pair_link", pair});
      }
      {
        core::TenetOptions prior = tenet_options;
        prior.deadline_ms = 0.0;  // expired at entry -> prior-only rung
        rungs.push_back({"prior_only", prior});
      }
      eval::EvalOptions eval_options;
      eval_options.num_threads = args->threads;
      for (const datasets::Dataset& dataset : corpora) {
        for (const RungConfig& rung : rungs) {
          baselines::TenetLinker tenet(
              baselines::BaselineSubstrate{&world.kb(), &world.embeddings,
                                           &world.gazetteer(), {}, {}},
              rung.options);
          report(eval::EvaluateEndToEnd(tenet, dataset, eval_options),
                 dataset.name + "/" + rung.name);
        }
      }
    } else if (args->kb_update_every > 0) {
      // Live-update drill: the world moves into generation 1, a
      // generation-aware service serves every corpus, and after every N
      // documents a fresh delta generation is swapped in under the load.
      serving::KbGenerationOptions gen_options;
      gen_options.linker_options = tenet_options;
      std::shared_ptr<const serving::KbGeneration> base =
          serving::KbGeneration::FromSubstrate(std::move(world.kb_world.kb),
                                               std::move(world.embeddings),
                                               /*id=*/1, gen_options);
      serving::ServingOptions sopts;
      sopts.num_threads = args->threads;
      sopts.overflow = QueueOverflowPolicy::kBlock;
      size_t max_docs = 1;
      for (const datasets::Dataset& dataset : corpora) {
        max_docs = std::max(max_docs, dataset.documents.size());
      }
      sopts.queue_capacity = max_docs + 1;
      sopts.admission.max_pending = std::numeric_limits<int>::max();
      serving::BatchLinkingService service(base, sopts);

      eval::KbUpdatePlan plan;
      plan.every = args->kb_update_every;
      plan.apply = [&args, &gen_options](
                       serving::BatchLinkingService& svc, int update) {
        std::shared_ptr<const serving::KbGeneration> current =
            svc.generation();
        kb::DeltaBuilder builder(current->kb());
        Rng delta_rng(args->seed * 1000003ull + static_cast<uint64_t>(update));
        // One fresh, unmentioned entity per update: the full delta/apply/
        // swap machinery runs, but no corpus surface is touched, so scores
        // stay comparable to a static run.
        std::string label = "zz live update " + std::to_string(update);
        kb::EntityId id = builder.AddEntity(
            label, kb::EntityType::kPerson, /*domain=*/0, /*popularity=*/1.0);
        builder.AddEntityAlias(id, label + " (alias)", 1.0);
        std::vector<float> row(current->embeddings().dimension());
        for (float& v : row) {
          v = static_cast<float>(delta_rng.NextGaussian());
        }
        builder.SetEmbedding(kb::ConceptRef::Entity(id), row);
        std::vector<kb::DeltaSegment> segments;
        segments.push_back(builder.Build());
        Result<std::shared_ptr<const serving::KbGeneration>> next =
            current->WithDeltas(segments, current->id() + 1, gen_options);
        if (!next.ok()) {
          std::fprintf(stderr, "update %d: %s\n", update,
                       next.status().ToString().c_str());
          return;
        }
        Status swapped = svc.SwapGeneration(*next);
        if (!swapped.ok()) {
          std::fprintf(stderr, "update %d: %s\n", update,
                       swapped.ToString().c_str());
        }
      };

      for (const datasets::Dataset& dataset : corpora) {
        report(eval::EvaluateEndToEndLive(base->linker(), service, dataset,
                                          plan),
               dataset.name);
      }
      serving::ServiceStats stats = service.Stats();
      std::fprintf(stderr,
                   "live updates: generation %lld serving, %lld swaps ok, "
                   "%lld rolled back\n",
                   static_cast<long long>(stats.generation),
                   static_cast<long long>(stats.swaps_ok),
                   static_cast<long long>(stats.swaps_rolled_back));
    } else {
      baselines::TenetLinker tenet(
          baselines::BaselineSubstrate{&world.kb(), &world.embeddings,
                                       &world.gazetteer(), {}, {}},
          tenet_options);
      eval::EvalOptions eval_options;
      eval_options.num_threads = args->threads;
      for (const datasets::Dataset& dataset : corpora) {
        report(eval::EvaluateEndToEnd(tenet, dataset, eval_options),
               dataset.name);
      }
    }
    if (args->metrics_out.has_value()) {
      const std::string& path = *args->metrics_out;
      obs::MetricsRegistry* registry = obs::MetricsRegistry::Default();
      const bool json = path.size() >= 5 &&
                        path.compare(path.size() - 5, 5, ".json") == 0;
      std::ofstream out(path);
      if (!out) {
        std::fprintf(stderr, "cannot write metrics to %s\n", path.c_str());
        return 1;
      }
      out << (json ? registry->RenderJson()
                   : registry->RenderPrometheusText());
      std::fprintf(stderr, "wrote metrics to %s\n", path.c_str());
    }
    if (total_crashed > 0) {
      std::fprintf(stderr,
                   "%d document(s) crashed (failed beyond guardrail "
                   "rejections)\n",
                   total_crashed);
      return 1;
    }
    return 0;
  }

  if (args->command == "demo") {
    datasets::WorldOptions options;
    options.seed = args->seed;
    datasets::SyntheticWorld world = datasets::BuildWorld(options);
    return LinkAndPrint(world.kb(), world.embeddings, world.gazetteer(),
                        *args);
  }

  PrintUsage();
  return 2;
}
