#ifndef TENET_KB_DELTA_H_
#define TENET_KB_DELTA_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "embedding/embedding_store.h"
#include "kb/knowledge_base.h"
#include "kb/types.h"

namespace tenet {
namespace kb {

// "TENETDELTA1": the append-only KB delta segment layered on TENETKB2
// snapshots (DESIGN.md §12) — the unit of a live KB update.  A segment is
// an ordered list of checksummed records describing what changed since a
// base snapshot: new entities/predicates with their aliases and facts,
// alias-prior adjustments, embedding rows, and tombstones.  Segments are
// written through AtomicWriteFile (temp + fsync + rename), so a crash
// mid-write never yields a readable-but-corrupt segment: either the whole
// segment is durable, or it does not exist.
//
// On-disk layout (all integers little-endian):
//   header (40 bytes): magic "TENETDELTA1\0" | endian tag u32 |
//                      record count u64 | payload bytes u64 |
//                      FNV-1a of the preceding 32 bytes
//   records:           op u32 | payload length u32 | FNV-1a(payload) u64 |
//                      payload
// The loader validates the header checksum, the declared lengths against
// the actual file size, and every record checksum before returning
// anything; a corrupt segment yields InvalidArgument, never a partial
// segment.
//
// Apply semantics (ApplyDeltas):
//  - Dense ids are append-only: a delta-added entity gets the next id
//    after the base KB's (DeltaBuilder hands these out), so facts and
//    embeddings can reference entities added earlier in the same chain.
//  - Alias weights compose with the surface's current distribution: the
//    base KB's finalized priors count as the existing weights, a delta
//    posting adds (or, for adjustments, replaces) a weight in those units,
//    and only the touched surfaces are renormalized + re-sorted.
//    Untouched surfaces keep their priors BIT-EXACT (the same contract
//    the snapshot round trip honors), so a delta
//    can never flip a near-tie disambiguation it didn't mention.
//  - Tombstones keep the concept's record (ids stay dense) but strip all
//    of its alias postings and drop every fact touching it — the concept
//    becomes unreachable from candidate generation.  A tombstone wins
//    over adds of the same concept anywhere in the applied chain.
//  - kSetEmbedding replaces one concept's raw vector; concepts without a
//    vector (typically delta-added ones) default to the zero row, whose
//    cosine against anything is 0.

enum class DeltaOp : uint32_t {
  kAddEntity = 1,
  kAddPredicate = 2,
  kAddEntityAlias = 3,
  kAddPredicateAlias = 4,
  kAdjustEntityAliasPrior = 5,
  kAdjustPredicateAliasPrior = 6,
  kTombstoneEntity = 7,
  kTombstonePredicate = 8,
  kAddFact = 9,
  kAddLiteralFact = 10,
  kSetEmbedding = 11,
};

// One decoded delta record.  Which fields are meaningful depends on `op`;
// the rest stay at their defaults.
struct DeltaRecord {
  DeltaOp op = DeltaOp::kAddEntity;
  /// Label (kAdd{Entity,Predicate}), surface (alias ops), or literal
  /// (kAddLiteralFact).
  std::string text;
  /// Concept id of alias/tombstone/embedding ops.
  int32_t id = -1;
  /// EntityType as int (kAddEntity).
  int32_t type = 0;
  int32_t domain = 0;
  /// Popularity (adds), alias weight (alias adds), or the replacement
  /// weight (prior adjustments).
  double weight = 0.0;
  int32_t subject = -1;
  int32_t predicate = -1;
  int32_t object = -1;
  /// kSetEmbedding: which kind `id` refers to (0 entity, 1 predicate).
  int32_t ref_kind = 0;
  std::vector<float> embedding;
};

// A loaded (or in-memory) delta segment.
struct DeltaSegment {
  /// Source path; empty for segments built in memory.
  std::string path;
  std::vector<DeltaRecord> records;
};

// Accumulates delta records with the same call shapes as the
// KnowledgeBase build API, handing out the dense ids the records will
// occupy once applied on a base with the given counts.
class DeltaBuilder {
 public:
  DeltaBuilder(int32_t base_entities, int32_t base_predicates);
  /// Sizes the id space from `base` (which need not be finalized yet).
  explicit DeltaBuilder(const KnowledgeBase& base);

  /// Adds an entity; like KnowledgeBase::AddEntity, its label is also
  /// registered as an alias weighted by `popularity`.  Returns the dense
  /// id the entity will occupy after apply.
  EntityId AddEntity(std::string_view label, EntityType type,
                     int32_t domain = 0, double popularity = 1.0);
  PredicateId AddPredicate(std::string_view label, int32_t domain = 0,
                           double popularity = 1.0);

  void AddEntityAlias(EntityId id, std::string_view surface, double weight);
  void AddPredicateAlias(PredicateId id, std::string_view surface,
                         double weight);

  /// Replaces the weight of the existing posting (surface, concept).
  /// Applying fails if the posting does not exist.
  void AdjustEntityAliasPrior(EntityId id, std::string_view surface,
                              double new_weight);
  void AdjustPredicateAliasPrior(PredicateId id, std::string_view surface,
                                 double new_weight);

  void TombstoneEntity(EntityId id);
  void TombstonePredicate(PredicateId id);

  void AddFact(EntityId subject, PredicateId predicate, EntityId object);
  void AddLiteralFact(EntityId subject, PredicateId predicate,
                      std::string_view literal);

  /// Replaces the raw embedding row of `ref`.  The vector's length must
  /// equal the base store's dimension (validated at apply time).
  void SetEmbedding(ConceptRef ref, std::span<const float> vector);

  /// Entity/predicate count after this delta (base + added so far).
  int32_t num_entities() const { return next_entity_; }
  int32_t num_predicates() const { return next_predicate_; }
  size_t num_records() const { return records_.size(); }

  /// The records as an in-memory segment (path empty).
  DeltaSegment Build() const;

  /// Serializes to `path` as TENETDELTA1, atomically.
  Status Write(const std::string& path) const;

 private:
  int32_t next_entity_;
  int32_t next_predicate_;
  std::vector<DeltaRecord> records_;
};

/// Serializes `segment` to `path` (TENETDELTA1, atomic write).
Status WriteDeltaSegment(const DeltaSegment& segment,
                         const std::string& path);

/// Loads and fully validates a TENETDELTA1 segment.  Header, lengths and
/// every record checksum are verified before anything is returned.
Result<DeltaSegment> LoadDeltaSegment(const std::string& path);

// What ApplyDeltas did, for logs / CLI output / metrics.
struct DeltaApplyStats {
  int64_t added_entities = 0;
  int64_t added_predicates = 0;
  int64_t added_aliases = 0;
  int64_t adjusted_priors = 0;
  int64_t tombstones = 0;
  int64_t added_facts = 0;
  int64_t dropped_facts = 0;  // base or delta facts killed by tombstones
  int64_t set_embeddings = 0;
  int64_t touched_surfaces = 0;  // surfaces renormalized + re-sorted
};

// The materialized result of applying a delta chain onto a base.
struct AppliedDelta {
  KnowledgeBase kb;
  embedding::EmbeddingStore embeddings;
  DeltaApplyStats stats;
};

/// Rebuilds (base KB + base embeddings) with `segments` applied in order,
/// under the semantics documented above.  The base is untouched (it may
/// be serving live traffic); the result is a fresh, finalized substrate.
/// Records are validated against the running id space; any invalid record
/// fails the whole apply with InvalidArgument and nothing is returned.
Result<AppliedDelta> ApplyDeltas(
    const KnowledgeBase& base,
    const embedding::EmbeddingStore& base_embeddings,
    std::span<const DeltaSegment> segments);

}  // namespace kb
}  // namespace tenet

#endif  // TENET_KB_DELTA_H_
