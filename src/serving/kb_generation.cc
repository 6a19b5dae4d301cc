#include "serving/kb_generation.h"

#include <string>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/logging.h"
#include "kb/io.h"

namespace tenet {
namespace serving {
namespace {

kb::DeltaApplyStats Accumulate(kb::DeltaApplyStats base,
                               const kb::DeltaApplyStats& more) {
  base.added_entities += more.added_entities;
  base.added_predicates += more.added_predicates;
  base.added_aliases += more.added_aliases;
  base.adjusted_priors += more.adjusted_priors;
  base.tombstones += more.tombstones;
  base.added_facts += more.added_facts;
  base.dropped_facts += more.dropped_facts;
  base.set_embeddings += more.set_embeddings;
  base.touched_surfaces += more.touched_surfaces;
  return base;
}

// Every lookup assumes one embedding row per concept; a pair without it
// would load and then abort on the first request reaching a missing row.
Status CheckConceptCounts(const kb::KnowledgeBase& kb,
                          const embedding::EmbeddingStore& embeddings) {
  if (embeddings.num_entities() == kb.num_entities() &&
      embeddings.num_predicates() == kb.num_predicates()) {
    return Status::Ok();
  }
  return Status::InvalidArgument(
      "KB and embeddings disagree on concept counts: the KB has " +
      std::to_string(kb.num_entities()) + " entities and " +
      std::to_string(kb.num_predicates()) +
      " predicates, the embeddings " +
      std::to_string(embeddings.num_entities()) + " and " +
      std::to_string(embeddings.num_predicates()));
}

// The deleter of every generation.  Once a Huge generation's large arrays
// are freed, glibc's dynamic mmap threshold puts the next generation's
// arrays in the main heap, and repeated load/drop cycles fragment it
// (DESIGN.md §10); the trim hands the free pages back to the OS.  It runs
// on the thread that drops the last reference.  Workers hold only
// raw-pointer RCU pins, so that is RcuCell::Publish on the swapping thread
// (under the service's swap mutex and the RCU writer mutex), the service's
// destructor or a caller dropping its generation() copy, never a request.
void DestroyGeneration(const KbGeneration* generation) {
  delete generation;
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace

KbGeneration::KbGeneration(kb::KnowledgeBase kb,
                           embedding::EmbeddingStore embeddings, uint64_t id,
                           kb::DeltaApplyStats delta_stats,
                           const KbGenerationOptions& options)
    : id_(id),
      kb_(std::move(kb)),
      embeddings_(std::move(embeddings)),
      gazetteer_(kb::DeriveGazetteer(kb_)),
      delta_stats_(delta_stats) {
  TENET_CHECK(kb_.finalized());
  TENET_CHECK(embeddings_.finalized());
  // The members above sit at their final heap addresses (generations are
  // heap-only and never moved), so the view may capture pointers now.
  view_ = std::make_shared<kb::KbView>(&kb_, &embeddings_);
  baselines::BaselineSubstrate substrate;
  substrate.view = view_;
  substrate.gazetteer = &gazetteer_;
  // TenetLinker takes its graph knobs from the substrate, so the ones the
  // caller put on linker_options must ride through it or they'd be
  // silently reset to defaults here.
  substrate.graph_options = options.linker_options.graph;
  linker_ = std::make_unique<baselines::TenetLinker>(substrate,
                                                     options.linker_options);
}

Result<std::shared_ptr<const KbGeneration>> KbGeneration::Create(
    kb::KnowledgeBase kb, embedding::EmbeddingStore embeddings, uint64_t id,
    kb::DeltaApplyStats delta_stats, const KbGenerationOptions& options) {
  TENET_RETURN_IF_ERROR(CheckConceptCounts(kb, embeddings));
  // Not make_shared: the constructor is private, and the deleter trims.
  return std::shared_ptr<const KbGeneration>(
      new KbGeneration(std::move(kb), std::move(embeddings), id, delta_stats,
                       options),
      DestroyGeneration);
}

std::shared_ptr<const KbGeneration> KbGeneration::FromSubstrate(
    kb::KnowledgeBase kb, embedding::EmbeddingStore embeddings, uint64_t id,
    const KbGenerationOptions& options) {
  // A mismatched in-memory substrate is a caller bug: value() aborts,
  // naming both counts.
  return Create(std::move(kb), std::move(embeddings), id,
                kb::DeltaApplyStats{}, options)
      .value();
}

Result<std::shared_ptr<const KbGeneration>> KbGeneration::Load(
    const std::string& kb_path, const std::string& embeddings_path,
    std::span<const std::string> delta_paths, uint64_t id,
    const KbGenerationOptions& options) {
  TENET_ASSIGN_OR_RETURN(kb::KnowledgeBase kb,
                         kb::LoadKnowledgeBase(kb_path));
  TENET_ASSIGN_OR_RETURN(embedding::EmbeddingStore embeddings,
                         kb::LoadEmbeddings(embeddings_path));
  if (delta_paths.empty()) {
    return Create(std::move(kb), std::move(embeddings), id,
                  kb::DeltaApplyStats{}, options);
  }
  std::vector<kb::DeltaSegment> segments;
  segments.reserve(delta_paths.size());
  for (const std::string& path : delta_paths) {
    TENET_ASSIGN_OR_RETURN(kb::DeltaSegment segment,
                           kb::LoadDeltaSegment(path));
    segments.push_back(std::move(segment));
  }
  TENET_ASSIGN_OR_RETURN(kb::AppliedDelta applied,
                         kb::ApplyDeltas(kb, embeddings, segments));
  return Create(std::move(applied.kb), std::move(applied.embeddings), id,
                applied.stats, options);
}

Result<std::shared_ptr<const KbGeneration>> KbGeneration::WithDeltas(
    std::span<const kb::DeltaSegment> segments, uint64_t id,
    const KbGenerationOptions& options) const {
  TENET_ASSIGN_OR_RETURN(kb::AppliedDelta applied,
                         kb::ApplyDeltas(kb_, embeddings_, segments));
  return Create(std::move(applied.kb), std::move(applied.embeddings), id,
                Accumulate(delta_stats_, applied.stats), options);
}

Status KbGeneration::Compact(const std::string& kb_path,
                             const std::string& embeddings_path) const {
  Status saved = kb::SaveKnowledgeBase(kb_, kb_path);
  if (!saved.ok()) return saved;
  return kb::SaveEmbeddings(embeddings_, embeddings_path);
}

}  // namespace serving
}  // namespace tenet
