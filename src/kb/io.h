#ifndef TENET_KB_IO_H_
#define TENET_KB_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "embedding/embedding_store.h"
#include "kb/knowledge_base.h"
#include "text/gazetteer.h"

namespace tenet {
namespace kb {

// Serialization of the knowledge base and the embedding store — the
// counterpart of the paper's offline preprocessing (indexing the Wikidata
// JSON dump, storing PBG vectors in a memory-mapped array): build the
// substrates once, persist them, and reload in O(size of file).
//
// The KB persists as one "TENETKB2" binary snapshot (DESIGN.md §11):
// length-prefixed sections (string table, entities, predicates, facts,
// frozen alias dictionary) behind a checksummed header, loaded zero-copy
// through common/mmap_file (with a buffered fallback) and restored without
// re-tokenizing a single float.  Embeddings persist as the "TENETEMB1"
// binary container; the loader maps it and bulk-loads the float matrix
// straight into the store (EmbeddingStore::LoadMatrix — one copy and one
// norm pass, no per-row reads).
//
// Round-trip contract: alias priors are persisted as the *finalized*
// probabilities inside the alias dictionary and adopted as-is on load — a
// save→load cycle reproduces candidate distributions to the last bit, so
// near-tie disambiguation never flips across a restart.  All loaders
// validate declared counts and section lengths against the actual bytes
// before anything is returned; malformed or truncated input yields
// InvalidArgument (DataLoss for non-finite embedding payloads), never a
// crash, never a partially populated store.

/// Knobs of the load path.
struct KbLoadOptions {
  /// Map snapshots zero-copy when the platform allows it; false forces the
  /// buffered (streamed-read) path.
  bool prefer_mmap = true;
};

/// Writes `kb` (which must be finalized) to `path` as a TENETKB2 snapshot.
/// Alias priors are persisted as the finalized probabilities, so a
/// reloaded KB reproduces the exact candidate distributions.
Status SaveKnowledgeBase(const KnowledgeBase& kb, const std::string& path);

/// Reads a snapshot written by SaveKnowledgeBase; the result is finalized.
Result<KnowledgeBase> LoadKnowledgeBase(const std::string& path,
                                        const KbLoadOptions& options = {});

/// Writes the embedding store (finalized) to `path` (binary "TENETEMB1").
Status SaveEmbeddings(const embedding::EmbeddingStore& store,
                      const std::string& path);

/// Reads embeddings written by SaveEmbeddings and finalizes the store.
Result<embedding::EmbeddingStore> LoadEmbeddings(
    const std::string& path, const KbLoadOptions& options = {});

// Snapshot introspection for `tenet_cli kb inspect` and tests: logical
// counts, the section table, and the alias dictionary's footprint.
struct KbSectionInfo {
  std::string name;
  uint64_t bytes = 0;
  uint64_t items = 0;
};

struct KbFileInfo {
  uint64_t file_bytes = 0;
  int64_t entities = 0;
  int64_t predicates = 0;
  int64_t aliases = 0;  // alias postings
  int64_t facts = 0;
  std::vector<KbSectionInfo> sections;
  /// Frozen alias dictionary stats (alias_dict section, DESIGN.md §15).
  uint64_t dict_surfaces = 0;
  uint64_t dict_key_bytes = 0;      // front-coded key blob
  uint64_t dict_raw_key_bytes = 0;  // uncompressed folded key bytes
};

/// Reads only the metadata of a TENETKB2 snapshot.  Validates the same
/// header/section invariants as the loader without materializing the KB.
Result<KbFileInfo> InspectKnowledgeBaseFile(const std::string& path);

struct EmbFileInfo {
  uint64_t file_bytes = 0;
  int32_t dimension = 0;
  int32_t entities = 0;
  int32_t predicates = 0;
};

/// Reads only the header of a TENETEMB1 file and validates its size.
Result<EmbFileInfo> InspectEmbeddingsFile(const std::string& path);

/// Derives an NER gazetteer from a (finalized) KB: every alias surface with
/// an entity sense is registered under the type of its most probable one
/// (the maximum prior, ties broken toward the smaller entity id, so the
/// result does not depend on posting order, which a delta leaves only
/// stably sorted by prior); surfaces whose folded key starts with an ASCII
/// lowercase letter are marked spottable in lowercase text.  One pass over
/// the alias dictionary's probe table into a gazetteer pre-sized from its
/// surface and key-byte counts, reading each key in place.  This is how a
/// loaded KB becomes usable by the extraction pipeline without persisting
/// the gazetteer separately.
text::Gazetteer DeriveGazetteer(const KnowledgeBase& kb);

}  // namespace kb
}  // namespace tenet

#endif  // TENET_KB_IO_H_
