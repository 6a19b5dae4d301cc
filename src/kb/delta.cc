#include "kb/delta.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/atomic_file.h"
#include "common/checksum.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/mmap_file.h"
#include "common/string_util.h"
#include "kb/byte_io.h"

namespace tenet {
namespace kb {
namespace {

// ---- TENETDELTA1 layout (DESIGN.md §12) -----------------------------------

constexpr char kDeltaMagic[12] = {'T', 'E', 'N', 'E', 'T', 'D',
                                  'E', 'L', 'T', 'A', '1', '\0'};
constexpr uint32_t kDeltaEndianTag = 0x31544C44;  // "DLT1" when little-endian
constexpr size_t kDeltaHeaderBytes = 40;  // magic+tag+count+bytes+checksum
constexpr size_t kDeltaChecksummedHeaderBytes = 32;
constexpr size_t kRecordHeaderBytes = 16;  // op+len+payload checksum
// Fixed-width prefix of every record payload: seven i32 fields, one f64,
// and the text/embedding length words.  Variable tails follow.
constexpr size_t kRecordFixedPayloadBytes = 44;
constexpr uint32_t kMaxDeltaOp = static_cast<uint32_t>(DeltaOp::kSetEmbedding);

void EncodeRecordPayload(const DeltaRecord& record, ByteWriter* out) {
  out->Append<int32_t>(record.id);
  out->Append<int32_t>(record.type);
  out->Append<int32_t>(record.domain);
  out->Append<int32_t>(record.ref_kind);
  out->Append<int32_t>(record.subject);
  out->Append<int32_t>(record.predicate);
  out->Append<int32_t>(record.object);
  out->Append<double>(record.weight);
  out->Append<uint32_t>(static_cast<uint32_t>(record.text.size()));
  out->Append<uint32_t>(static_cast<uint32_t>(record.embedding.size()));
  out->AppendBytes(record.text.data(), record.text.size());
  out->AppendBytes(record.embedding.data(),
                   record.embedding.size() * sizeof(float));
}

ByteWriter SerializeSegment(const std::vector<DeltaRecord>& records) {
  ByteWriter payload;
  for (const DeltaRecord& record : records) {
    ByteWriter body;
    EncodeRecordPayload(record, &body);
    payload.Append<uint32_t>(static_cast<uint32_t>(record.op));
    payload.Append<uint32_t>(static_cast<uint32_t>(body.size()));
    payload.Append<uint64_t>(Fnv1a64(body.data(), body.size()));
    payload.AppendBytes(body.data(), body.size());
  }

  ByteWriter file;
  file.AppendBytes(kDeltaMagic, sizeof(kDeltaMagic));
  file.Append<uint32_t>(kDeltaEndianTag);
  file.Append<uint64_t>(static_cast<uint64_t>(records.size()));
  file.Append<uint64_t>(static_cast<uint64_t>(payload.size()));
  TENET_CHECK_EQ(file.size(), kDeltaChecksummedHeaderBytes);
  file.Append<uint64_t>(Fnv1a64(file.data(), kDeltaChecksummedHeaderBytes));
  file.AppendBytes(payload.data(), payload.size());
  return file;
}

Status Corrupt(const std::string& path, size_t record, const char* what) {
  return Status::InvalidArgument("delta segment " + path + ": record " +
                                 std::to_string(record) + ": " + what);
}

Result<DeltaRecord> DecodeRecord(uint32_t op, const unsigned char* payload,
                                 uint32_t payload_len,
                                 const std::string& path, size_t index) {
  if (payload_len < kRecordFixedPayloadBytes) {
    return Corrupt(path, index, "payload shorter than the fixed fields");
  }
  DeltaRecord record;
  record.op = static_cast<DeltaOp>(op);
  ByteReader reader(payload);
  record.id = reader.Read<int32_t>();
  record.type = reader.Read<int32_t>();
  record.domain = reader.Read<int32_t>();
  record.ref_kind = reader.Read<int32_t>();
  record.subject = reader.Read<int32_t>();
  record.predicate = reader.Read<int32_t>();
  record.object = reader.Read<int32_t>();
  record.weight = reader.Read<double>();
  const uint32_t text_len = reader.Read<uint32_t>();
  const uint32_t emb_count = reader.Read<uint32_t>();
  const uint64_t expected = kRecordFixedPayloadBytes +
                            static_cast<uint64_t>(text_len) +
                            static_cast<uint64_t>(emb_count) * sizeof(float);
  if (expected != payload_len) {
    return Corrupt(path, index,
                   "declared text/embedding lengths disagree with the "
                   "payload length");
  }
  record.text.assign(reinterpret_cast<const char*>(reader.position()),
                     text_len);
  record.embedding.resize(emb_count);
  if (emb_count > 0) {
    std::memcpy(record.embedding.data(), reader.position() + text_len,
                emb_count * sizeof(float));
  }
  return record;
}

}  // namespace

// ---- DeltaBuilder ---------------------------------------------------------

DeltaBuilder::DeltaBuilder(int32_t base_entities, int32_t base_predicates)
    : next_entity_(base_entities), next_predicate_(base_predicates) {
  TENET_CHECK_GE(base_entities, 0);
  TENET_CHECK_GE(base_predicates, 0);
}

DeltaBuilder::DeltaBuilder(const KnowledgeBase& base)
    : DeltaBuilder(base.num_entities(), base.num_predicates()) {}

EntityId DeltaBuilder::AddEntity(std::string_view label, EntityType type,
                                 int32_t domain, double popularity) {
  const EntityId id = next_entity_++;
  DeltaRecord record;
  record.op = DeltaOp::kAddEntity;
  record.text = std::string(label);
  record.id = id;
  record.type = static_cast<int32_t>(type);
  record.domain = domain;
  record.weight = popularity;
  records_.push_back(std::move(record));
  // Mirror KnowledgeBase::AddEntity: the label doubles as an alias weighted
  // by popularity, carried as an explicit alias record so apply has one
  // alias path.
  if (!label.empty() && popularity > 0.0) {
    AddEntityAlias(id, label, popularity);
  }
  return id;
}

PredicateId DeltaBuilder::AddPredicate(std::string_view label, int32_t domain,
                                       double popularity) {
  const PredicateId id = next_predicate_++;
  DeltaRecord record;
  record.op = DeltaOp::kAddPredicate;
  record.text = std::string(label);
  record.id = id;
  record.domain = domain;
  record.weight = popularity;
  records_.push_back(std::move(record));
  if (!label.empty() && popularity > 0.0) {
    AddPredicateAlias(id, label, popularity);
  }
  return id;
}

void DeltaBuilder::AddEntityAlias(EntityId id, std::string_view surface,
                                  double weight) {
  DeltaRecord record;
  record.op = DeltaOp::kAddEntityAlias;
  record.text = std::string(surface);
  record.id = id;
  record.weight = weight;
  records_.push_back(std::move(record));
}

void DeltaBuilder::AddPredicateAlias(PredicateId id, std::string_view surface,
                                     double weight) {
  DeltaRecord record;
  record.op = DeltaOp::kAddPredicateAlias;
  record.text = std::string(surface);
  record.id = id;
  record.weight = weight;
  records_.push_back(std::move(record));
}

void DeltaBuilder::AdjustEntityAliasPrior(EntityId id,
                                          std::string_view surface,
                                          double new_weight) {
  DeltaRecord record;
  record.op = DeltaOp::kAdjustEntityAliasPrior;
  record.text = std::string(surface);
  record.id = id;
  record.weight = new_weight;
  records_.push_back(std::move(record));
}

void DeltaBuilder::AdjustPredicateAliasPrior(PredicateId id,
                                             std::string_view surface,
                                             double new_weight) {
  DeltaRecord record;
  record.op = DeltaOp::kAdjustPredicateAliasPrior;
  record.text = std::string(surface);
  record.id = id;
  record.weight = new_weight;
  records_.push_back(std::move(record));
}

void DeltaBuilder::TombstoneEntity(EntityId id) {
  DeltaRecord record;
  record.op = DeltaOp::kTombstoneEntity;
  record.id = id;
  records_.push_back(std::move(record));
}

void DeltaBuilder::TombstonePredicate(PredicateId id) {
  DeltaRecord record;
  record.op = DeltaOp::kTombstonePredicate;
  record.id = id;
  records_.push_back(std::move(record));
}

void DeltaBuilder::AddFact(EntityId subject, PredicateId predicate,
                           EntityId object) {
  DeltaRecord record;
  record.op = DeltaOp::kAddFact;
  record.subject = subject;
  record.predicate = predicate;
  record.object = object;
  records_.push_back(std::move(record));
}

void DeltaBuilder::AddLiteralFact(EntityId subject, PredicateId predicate,
                                  std::string_view literal) {
  DeltaRecord record;
  record.op = DeltaOp::kAddLiteralFact;
  record.text = std::string(literal);
  record.subject = subject;
  record.predicate = predicate;
  records_.push_back(std::move(record));
}

void DeltaBuilder::SetEmbedding(ConceptRef ref, std::span<const float> vector) {
  DeltaRecord record;
  record.op = DeltaOp::kSetEmbedding;
  record.id = ref.id;
  record.ref_kind = static_cast<int32_t>(ref.kind);
  record.embedding.assign(vector.begin(), vector.end());
  records_.push_back(std::move(record));
}

DeltaSegment DeltaBuilder::Build() const {
  DeltaSegment segment;
  segment.records = records_;
  return segment;
}

Status DeltaBuilder::Write(const std::string& path) const {
  return WriteDeltaSegment(Build(), path);
}

// ---- Serialization --------------------------------------------------------

Status WriteDeltaSegment(const DeltaSegment& segment,
                         const std::string& path) {
  const ByteWriter file = SerializeSegment(segment.records);
  if (TENET_FAULT_POINT("kb/io/write_delta")) {
    return SimulateTornWrite(path, file.data(), file.size(), "segment");
  }
  return AtomicWriteFile(path, file.data(), file.size());
}

Result<DeltaSegment> LoadDeltaSegment(const std::string& path) {
  if (TENET_FAULT_POINT("kb/io/load_delta")) {
    return Status::DataLoss("injected fault: delta segment read failed: " +
                            path);
  }
  TENET_ASSIGN_OR_RETURN(MmapFile file, MmapFile::Open(path));
  const std::span<const std::byte> bytes = file.bytes();

  if (bytes.size() < kDeltaHeaderBytes) {
    return Status::InvalidArgument("delta segment " + path +
                                   ": shorter than the header");
  }
  if (std::memcmp(bytes.data(), kDeltaMagic, sizeof(kDeltaMagic)) != 0) {
    return Status::InvalidArgument("delta segment " + path +
                                   ": bad magic (not a TENETDELTA1 file)");
  }
  ByteReader header(bytes.data() + sizeof(kDeltaMagic));
  const uint32_t endian = header.Read<uint32_t>();
  if (endian != kDeltaEndianTag) {
    return Status::InvalidArgument("delta segment " + path +
                                   ": endian tag mismatch");
  }
  const uint64_t record_count = header.Read<uint64_t>();
  const uint64_t payload_bytes = header.Read<uint64_t>();
  const uint64_t header_checksum = header.Read<uint64_t>();
  if (header_checksum !=
      Fnv1a64(bytes.data(), kDeltaChecksummedHeaderBytes)) {
    return Status::InvalidArgument("delta segment " + path +
                                   ": header checksum mismatch");
  }
  if (payload_bytes != bytes.size() - kDeltaHeaderBytes) {
    return Status::InvalidArgument(
        "delta segment " + path +
        ": declared payload size disagrees with the file size (truncated "
        "or trailing garbage)");
  }
  // Every record carries at least its header, so the payload bounds the
  // count — checked before the count sizes an allocation.
  if (record_count > payload_bytes / kRecordHeaderBytes) {
    return Status::InvalidArgument(
        "delta segment " + path + ": record count " +
        std::to_string(record_count) + " exceeds what " +
        std::to_string(payload_bytes) + " payload bytes can hold");
  }

  DeltaSegment segment;
  segment.path = path;
  segment.records.reserve(record_count);
  const unsigned char* cursor =
      reinterpret_cast<const unsigned char*>(bytes.data()) + kDeltaHeaderBytes;
  uint64_t remaining = payload_bytes;
  for (uint64_t i = 0; i < record_count; ++i) {
    if (remaining < kRecordHeaderBytes) {
      return Corrupt(path, i, "truncated record header");
    }
    ByteReader reader(cursor);
    const uint32_t op = reader.Read<uint32_t>();
    const uint32_t payload_len = reader.Read<uint32_t>();
    const uint64_t payload_checksum = reader.Read<uint64_t>();
    if (op < 1 || op > kMaxDeltaOp) {
      return Corrupt(path, i, "unknown op");
    }
    if (payload_len > remaining - kRecordHeaderBytes) {
      return Corrupt(path, i, "record payload overruns the file");
    }
    const unsigned char* payload = reader.position();
    if (payload_checksum != Fnv1a64(payload, payload_len)) {
      return Corrupt(path, i, "payload checksum mismatch");
    }
    TENET_ASSIGN_OR_RETURN(DeltaRecord record,
                           DecodeRecord(op, payload, payload_len, path, i));
    segment.records.push_back(std::move(record));
    cursor = payload + payload_len;
    remaining -= kRecordHeaderBytes + payload_len;
  }
  if (remaining != 0) {
    return Status::InvalidArgument("delta segment " + path +
                                   ": trailing bytes after the last record");
  }
  return segment;
}

// ---- ApplyDeltas ----------------------------------------------------------

namespace {

struct PendingEntity {
  std::string label;
  EntityType type;
  int32_t domain;
  double popularity;
};

struct PendingPredicate {
  std::string label;
  int32_t domain;
  double popularity;
};

struct PendingAliasOp {
  ConceptRef ref;
  double weight;
  bool adjust;
};

Status BadRecord(size_t segment, size_t record, const std::string& why) {
  return Status::InvalidArgument("delta apply: segment " +
                                 std::to_string(segment) + " record " +
                                 std::to_string(record) + ": " + why);
}

}  // namespace

Result<AppliedDelta> ApplyDeltas(
    const KnowledgeBase& base,
    const embedding::EmbeddingStore& base_embeddings,
    std::span<const DeltaSegment> segments) {
  if (TENET_FAULT_POINT("kb/delta/apply")) {
    return Status::DataLoss("injected fault: delta apply aborted");
  }
  if (!base.finalized()) {
    return Status::InvalidArgument("delta apply: base KB is not finalized");
  }
  if (!base_embeddings.finalized()) {
    return Status::InvalidArgument(
        "delta apply: base embedding store is not finalized");
  }
  if (base_embeddings.num_entities() != base.num_entities() ||
      base_embeddings.num_predicates() != base.num_predicates()) {
    return Status::InvalidArgument(
        "delta apply: base KB and embedding store disagree on concept "
        "counts");
  }

  DeltaApplyStats stats;
  const int dim = base_embeddings.dimension();
  int32_t num_entities = base.num_entities();
  int32_t num_predicates = base.num_predicates();

  std::vector<PendingEntity> new_entities;
  std::vector<PendingPredicate> new_predicates;
  // Folded surface -> ordered delta ops, sorted for the merge with the
  // base dictionary.
  std::map<std::string, std::vector<PendingAliasOp>> alias_ops;
  std::unordered_set<int32_t> dead_entities;
  std::unordered_set<int32_t> dead_predicates;
  std::vector<Triple> delta_facts;
  std::unordered_map<ConceptRef, std::vector<float>> embedding_overrides;

  // ---- Scan: validate every record against the running id space ----------
  for (size_t s = 0; s < segments.size(); ++s) {
    const DeltaSegment& segment = segments[s];
    for (size_t r = 0; r < segment.records.size(); ++r) {
      const DeltaRecord& record = segment.records[r];
      const bool entity_side =
          record.op == DeltaOp::kAddEntityAlias ||
          record.op == DeltaOp::kAdjustEntityAliasPrior ||
          record.op == DeltaOp::kTombstoneEntity;
      switch (record.op) {
        case DeltaOp::kAddEntity: {
          if (record.text.empty()) {
            return BadRecord(s, r, "entity label is empty");
          }
          if (record.type < 0 || record.type >= kNumEntityTypes) {
            return BadRecord(s, r, "entity type out of range");
          }
          if (record.id >= 0 && record.id != num_entities) {
            return BadRecord(
                s, r,
                "entity id " + std::to_string(record.id) +
                    " does not continue the id space (expected " +
                    std::to_string(num_entities) +
                    "; segment built against a different base?)");
          }
          new_entities.push_back({record.text,
                                  static_cast<EntityType>(record.type),
                                  record.domain, record.weight});
          ++num_entities;
          ++stats.added_entities;
          break;
        }
        case DeltaOp::kAddPredicate: {
          if (record.text.empty()) {
            return BadRecord(s, r, "predicate label is empty");
          }
          if (record.id >= 0 && record.id != num_predicates) {
            return BadRecord(
                s, r,
                "predicate id " + std::to_string(record.id) +
                    " does not continue the id space (expected " +
                    std::to_string(num_predicates) +
                    "; segment built against a different base?)");
          }
          new_predicates.push_back(
              {record.text, record.domain, record.weight});
          ++num_predicates;
          ++stats.added_predicates;
          break;
        }
        case DeltaOp::kAddEntityAlias:
        case DeltaOp::kAddPredicateAlias:
        case DeltaOp::kAdjustEntityAliasPrior:
        case DeltaOp::kAdjustPredicateAliasPrior: {
          const int32_t limit = entity_side ? num_entities : num_predicates;
          if (record.id < 0 || record.id >= limit) {
            return BadRecord(s, r, "alias concept id out of range");
          }
          if (!(record.weight > 0.0)) {
            return BadRecord(s, r, "alias weight must be positive");
          }
          std::string folded = AsciiToLower(record.text);
          if (folded.empty()) break;  // non-indexable surface, as in Add()
          const bool adjust =
              record.op == DeltaOp::kAdjustEntityAliasPrior ||
              record.op == DeltaOp::kAdjustPredicateAliasPrior;
          const ConceptRef ref = entity_side
                                     ? ConceptRef::Entity(record.id)
                                     : ConceptRef::Predicate(record.id);
          alias_ops[std::move(folded)].push_back(
              {ref, record.weight, adjust});
          if (adjust) {
            ++stats.adjusted_priors;
          } else {
            ++stats.added_aliases;
          }
          break;
        }
        case DeltaOp::kTombstoneEntity:
        case DeltaOp::kTombstonePredicate: {
          const int32_t limit = entity_side ? num_entities : num_predicates;
          if (record.id < 0 || record.id >= limit) {
            return BadRecord(s, r, "tombstoned id out of range");
          }
          (entity_side ? dead_entities : dead_predicates).insert(record.id);
          ++stats.tombstones;
          break;
        }
        case DeltaOp::kAddFact: {
          if (record.subject < 0 || record.subject >= num_entities ||
              record.object < 0 || record.object >= num_entities) {
            return BadRecord(s, r, "fact entity id out of range");
          }
          if (record.predicate < 0 || record.predicate >= num_predicates) {
            return BadRecord(s, r, "fact predicate id out of range");
          }
          Triple triple;
          triple.subject = record.subject;
          triple.predicate = record.predicate;
          triple.object_entity = record.object;
          triple.object_is_entity = true;
          delta_facts.push_back(std::move(triple));
          break;
        }
        case DeltaOp::kAddLiteralFact: {
          if (record.subject < 0 || record.subject >= num_entities) {
            return BadRecord(s, r, "fact subject id out of range");
          }
          if (record.predicate < 0 || record.predicate >= num_predicates) {
            return BadRecord(s, r, "fact predicate id out of range");
          }
          Triple triple;
          triple.subject = record.subject;
          triple.predicate = record.predicate;
          triple.object_literal = record.text;
          triple.object_is_entity = false;
          delta_facts.push_back(std::move(triple));
          break;
        }
        case DeltaOp::kSetEmbedding: {
          if (record.ref_kind != 0 && record.ref_kind != 1) {
            return BadRecord(s, r, "embedding concept kind out of range");
          }
          const bool is_entity = record.ref_kind == 0;
          const int32_t limit = is_entity ? num_entities : num_predicates;
          if (record.id < 0 || record.id >= limit) {
            return BadRecord(s, r, "embedding concept id out of range");
          }
          if (static_cast<int>(record.embedding.size()) != dim) {
            return BadRecord(
                s, r,
                "embedding has " + std::to_string(record.embedding.size()) +
                    " dims, store has " + std::to_string(dim));
          }
          for (float v : record.embedding) {
            if (!std::isfinite(v)) {
              return BadRecord(s, r, "embedding contains a non-finite value");
            }
          }
          const ConceptRef ref = is_entity
                                     ? ConceptRef::Entity(record.id)
                                     : ConceptRef::Predicate(record.id);
          embedding_overrides[ref] = record.embedding;  // last write wins
          ++stats.set_embeddings;
          break;
        }
      }
    }
  }

  // ---- Concept records ----------------------------------------------------
  KnowledgeBase kb;
  kb.Reserve(num_entities, num_predicates,
             base.num_facts() + static_cast<int32_t>(delta_facts.size()));
  // register_label_alias=false throughout: every posting — base and delta —
  // flows through the single restore below, so the label aliases are
  // already in the lists.
  for (int32_t i = 0; i < base.num_entities(); ++i) {
    const EntityRecord& e = base.entity(i);
    kb.AddEntity(e.label, e.type, e.domain, e.popularity,
                 /*register_label_alias=*/false);
  }
  for (const PendingEntity& e : new_entities) {
    kb.AddEntity(e.label, e.type, e.domain, e.popularity,
                 /*register_label_alias=*/false);
  }
  for (int32_t i = 0; i < base.num_predicates(); ++i) {
    const PredicateRecord& p = base.predicate(i);
    kb.AddPredicate(p.label, p.domain, p.popularity,
                    /*register_label_alias=*/false);
  }
  for (const PendingPredicate& p : new_predicates) {
    kb.AddPredicate(p.label, p.domain, p.popularity,
                    /*register_label_alias=*/false);
  }

  // ---- Facts: tombstones win over any add, anywhere in the chain ----------
  const auto fact_is_dead = [&](const Triple& t) {
    if (dead_entities.count(t.subject) != 0) return true;
    if (dead_predicates.count(t.predicate) != 0) return true;
    return t.object_is_entity && dead_entities.count(t.object_entity) != 0;
  };
  const auto add_fact = [&kb](const Triple& t) {
    return t.object_is_entity
               ? kb.AddFact(t.subject, t.predicate, t.object_entity)
               : kb.AddLiteralFact(t.subject, t.predicate, t.object_literal);
  };
  for (const Triple& t : base.facts()) {
    if (fact_is_dead(t)) {
      ++stats.dropped_facts;
      continue;
    }
    Status status = add_fact(t);
    if (!status.ok()) return status;
  }
  for (const Triple& t : delta_facts) {
    if (fact_is_dead(t)) {
      ++stats.dropped_facts;
      continue;
    }
    Status status = add_fact(t);
    if (!status.ok()) return status;
    ++stats.added_facts;
  }

  // ---- Alias dictionary: one compile ---------------------------------------
  // A sorted merge of the base dictionary with the alias ops.  A surface
  // that an op names or that holds a tombstoned concept is recomposed;
  // every other surface's spans go to the builder unchanged, so their
  // priors stay bit-exact.
  const bool has_dead = !dead_entities.empty() || !dead_predicates.empty();
  const auto posting_is_dead = [&](const AliasPosting& p) {
    return p.concept_ref.is_entity()
               ? dead_entities.count(p.concept_ref.id) != 0
               : dead_predicates.count(p.concept_ref.id) != 0;
  };
  FrozenAliasDict::Builder builder;
  std::vector<AliasPosting> composed;
  // Recomposes one surface from its base postings (empty for a surface the
  // base lacks) and its ops (empty when only a tombstone touches it).
  const auto compose = [&](std::string_view surface,
                           std::span<const AliasPosting> postings,
                           std::span<const PendingAliasOp> ops) -> Status {
    composed.assign(postings.begin(), postings.end());
    for (const PendingAliasOp& op : ops) {
      auto posting = std::find_if(
          composed.begin(), composed.end(),
          [&op](const AliasPosting& p) { return p.concept_ref == op.ref; });
      if (op.adjust) {
        if (posting == composed.end()) {
          return Status::InvalidArgument(
              "delta apply: prior adjustment for surface \"" +
              std::string(surface) + "\" names concept " +
              ConceptRefToString(op.ref) + ", which has no posting there");
        }
        posting->prior = op.weight;
      } else if (posting != composed.end()) {
        posting->prior += op.weight;  // duplicates accumulate, as in Add()
      } else {
        composed.push_back({op.ref, op.weight});
      }
    }
    composed.erase(
        std::remove_if(composed.begin(), composed.end(), posting_is_dead),
        composed.end());
    // A surface composed down to nothing is left out.
    if (composed.empty()) return Status::Ok();

    // Renormalize over the composed weights — the base's finalized priors
    // count as the existing weights — the way AliasIndex::Finalize does:
    // per-kind totals, divide, then a descending stable sort.
    double entity_total = 0.0;
    double predicate_total = 0.0;
    for (const AliasPosting& p : composed) {
      (p.concept_ref.is_entity() ? entity_total : predicate_total) += p.prior;
    }
    for (AliasPosting& p : composed) {
      const double total =
          p.concept_ref.is_entity() ? entity_total : predicate_total;
      p.prior = total > 0.0 ? p.prior / total : 0.0;
    }
    std::stable_sort(composed.begin(), composed.end(),
                     [](const AliasPosting& a, const AliasPosting& b) {
                       return a.prior > b.prior;
                     });
    ++stats.touched_surfaces;
    builder.Add(surface, composed);
    return Status::Ok();
  };

  Status status;
  auto next_ops = alias_ops.begin();
  base.alias_index().frozen_dict()->VisitSurfaces(
      [&](std::string_view surface, std::span<const AliasPosting> postings) {
        for (; status.ok() && next_ops != alias_ops.end() &&
               next_ops->first < surface;
             ++next_ops) {
          status = compose(next_ops->first, {}, next_ops->second);
        }
        if (!status.ok()) return;
        if (next_ops != alias_ops.end() && next_ops->first == surface) {
          status = compose(surface, postings, next_ops->second);
          ++next_ops;
        } else if (has_dead && std::any_of(postings.begin(), postings.end(),
                                           posting_is_dead)) {
          status = compose(surface, postings, {});
        } else {
          builder.Add(surface, postings);
        }
      });
  for (; status.ok() && next_ops != alias_ops.end(); ++next_ops) {
    status = compose(next_ops->first, {}, next_ops->second);
  }
  if (!status.ok()) return status;
  kb.AdoptAliasState(std::move(builder).Build());
  kb.Finalize();

  // ---- Embeddings: base rows copied, delta rows zero unless set -----------
  embedding::EmbeddingStore store(dim, num_entities, num_predicates);
  const auto copy_row = [&](ConceptRef ref) {
    const std::span<const float> src = base_embeddings.Vector(ref);
    const std::span<float> dst = store.MutableVector(ref);
    std::memcpy(dst.data(), src.data(), src.size() * sizeof(float));
  };
  for (int32_t i = 0; i < base.num_entities(); ++i) {
    copy_row(ConceptRef::Entity(i));
  }
  for (int32_t i = 0; i < base.num_predicates(); ++i) {
    copy_row(ConceptRef::Predicate(i));
  }
  for (const auto& [ref, row] : embedding_overrides) {
    const std::span<float> dst = store.MutableVector(ref);
    std::memcpy(dst.data(), row.data(), row.size() * sizeof(float));
  }
  store.Finalize();

  return AppliedDelta{std::move(kb), std::move(store), stats};
}

}  // namespace kb
}  // namespace tenet
