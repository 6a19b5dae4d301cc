#include "kb/io.h"

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/atomic_file.h"
#include "common/checksum.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/mmap_file.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "kb/alias_dict.h"
#include "kb/byte_io.h"
#include "obs/metrics.h"

namespace tenet {
namespace kb {
namespace {

constexpr char kKbMagic[8] = {'T', 'E', 'N', 'E', 'T', 'K', 'B', '2'};
constexpr char kEmbMagic[] = "TENETEMB1";
// 9-byte magic + {dim, entities, predicates} as int32.
constexpr size_t kEmbHeaderBytes =
    (sizeof(kEmbMagic) - 1) + 3 * sizeof(int32_t);

// ---- TENETKB2 binary layout (DESIGN.md §11) -------------------------------
// All integers are fixed-width little-endian; the endian tag rejects
// cross-endian snapshots.  Every section is length-prefixed in the header
// table and 8-byte aligned, so a mapped file is consumed by pointer
// arithmetic — no tokenizing, no float re-parsing.

constexpr uint32_t kEndianTag = 0x32424B54;  // "TKB2" when little-endian
constexpr size_t kHeaderBytes = 32;          // magic+tag+count+size+checksum
constexpr size_t kSectionEntryBytes = 32;    // id+pad+offset+bytes+items
constexpr size_t kRecordBytes = 24;          // entity/predicate/fact

// Ids 4 and 6 are unused.
enum SectionId : uint32_t {
  kSectionStrings = 1,
  kSectionEntities = 2,
  kSectionPredicates = 3,
  kSectionFacts = 5,
  // Frozen alias dictionary (kb/alias_dict.h, DESIGN.md §15): front-coded
  // sorted surfaces + posting arena, self-checksummed.
  kSectionAliasDict = 7,
};
// A snapshot carries each section exactly once, so exactly this many.
constexpr uint32_t kNumSections = 5;
constexpr uint32_t kMaxSectionId = kSectionAliasDict;

// Null for ids that name no section.
const char* SectionName(uint32_t id) {
  switch (id) {
    case kSectionStrings: return "string_table";
    case kSectionEntities: return "entities";
    case kSectionPredicates: return "predicates";
    case kSectionFacts: return "facts";
    case kSectionAliasDict: return "alias_dict";
    default: return nullptr;
  }
}

// Interns strings; the blob and end-offset array form the string table
// section.
class StringTableBuilder {
 public:
  uint32_t Intern(std::string_view s) {
    uint32_t next = static_cast<uint32_t>(ordered_.size());
    auto [it, inserted] = index_.emplace(std::string(s), next);
    if (inserted) ordered_.push_back(&it->first);
    return it->second;
  }

  void Serialize(ByteWriter* out) const {
    uint64_t end = 0;
    for (const std::string* s : ordered_) {
      end += s->size();
      out->Append<uint64_t>(end);
    }
    for (const std::string* s : ordered_) {
      out->AppendBytes(s->data(), s->size());
    }
  }

  size_t size() const { return ordered_.size(); }

 private:
  std::unordered_map<std::string, uint32_t> index_;
  std::vector<const std::string*> ordered_;
};

struct SectionEntry {
  uint32_t id = 0;
  uint64_t offset = 0;
  uint64_t byte_size = 0;
  uint64_t item_count = 0;
};

// Header + section table of a mapped snapshot, validated: magic, endian
// tag, declared-vs-actual file size, checksum, per-section bounds, and the
// presence of each section exactly once.
struct SnapshotLayout {
  std::array<SectionEntry, kNumSections> table;  // file order
  std::array<SectionEntry, kMaxSectionId + 1> by_id;

  const SectionEntry& section(SectionId id) const { return by_id[id]; }
};

Result<SnapshotLayout> ParseSnapshotLayout(std::span<const std::byte> bytes) {
  if (bytes.size() < kHeaderBytes) {
    return Status::InvalidArgument("truncated TENETKB2 header");
  }
  const std::byte* p = bytes.data();
  if (std::memcmp(p, kKbMagic, sizeof(kKbMagic)) != 0) {
    return Status::InvalidArgument("not a TENETKB2 snapshot");
  }
  uint32_t endian_tag;
  uint32_t section_count;
  uint64_t file_size;
  uint64_t checksum;
  std::memcpy(&endian_tag, p + 8, sizeof(endian_tag));
  std::memcpy(&section_count, p + 12, sizeof(section_count));
  std::memcpy(&file_size, p + 16, sizeof(file_size));
  std::memcpy(&checksum, p + 24, sizeof(checksum));
  if (endian_tag != kEndianTag) {
    return Status::InvalidArgument(
        "TENETKB2 snapshot written with a different byte order");
  }
  if (file_size != bytes.size()) {
    return Status::InvalidArgument(
        "TENETKB2 size mismatch (truncated or trailing bytes): declared " +
        std::to_string(file_size) + ", actual " +
        std::to_string(bytes.size()));
  }
  if (section_count != kNumSections) {
    return Status::InvalidArgument("TENETKB2 section count " +
                                   std::to_string(section_count) +
                                   ", expected " +
                                   std::to_string(kNumSections));
  }
  const size_t table_bytes = kSectionEntryBytes * kNumSections;
  if (bytes.size() < kHeaderBytes + table_bytes) {
    return Status::InvalidArgument("truncated TENETKB2 section table");
  }
  const unsigned char* table =
      reinterpret_cast<const unsigned char*>(p + kHeaderBytes);
  if (Fnv1a64(table, table_bytes) != checksum) {
    return Status::InvalidArgument("TENETKB2 header checksum mismatch");
  }
  SnapshotLayout layout;
  std::array<bool, kMaxSectionId + 1> seen{};
  for (uint32_t i = 0; i < kNumSections; ++i) {
    const unsigned char* e = table + i * kSectionEntryBytes;
    SectionEntry entry;
    std::memcpy(&entry.id, e, sizeof(entry.id));
    std::memcpy(&entry.offset, e + 8, sizeof(entry.offset));
    std::memcpy(&entry.byte_size, e + 16, sizeof(entry.byte_size));
    std::memcpy(&entry.item_count, e + 24, sizeof(entry.item_count));
    const char* name = SectionName(entry.id);
    if (name == nullptr) {
      return Status::InvalidArgument("unknown TENETKB2 section id " +
                                     std::to_string(entry.id));
    }
    if (entry.offset < kHeaderBytes + table_bytes ||
        entry.offset > bytes.size() ||
        entry.byte_size > bytes.size() - entry.offset) {
      return Status::InvalidArgument(
          std::string("TENETKB2 section out of bounds: ") + name);
    }
    // Five entries, each a distinct known id: every section is present.
    if (seen[entry.id]) {
      return Status::InvalidArgument(
          std::string("duplicate TENETKB2 section: ") + name);
    }
    seen[entry.id] = true;
    layout.table[i] = entry;
    layout.by_id[entry.id] = entry;
  }
  return layout;
}

// Resolved string table: views into the mapped blob (zero-copy).
Result<std::vector<std::string_view>> ParseStringTable(
    std::span<const std::byte> bytes, const SectionEntry& entry) {
  if (entry.item_count > std::numeric_limits<int32_t>::max()) {
    return Status::InvalidArgument("implausible string table count");
  }
  size_t count = static_cast<size_t>(entry.item_count);
  if (entry.byte_size < count * sizeof(uint64_t)) {
    return Status::InvalidArgument("string table shorter than its offsets");
  }
  const std::byte* base = bytes.data() + entry.offset;
  const char* blob =
      reinterpret_cast<const char*>(base) + count * sizeof(uint64_t);
  size_t blob_size = entry.byte_size - count * sizeof(uint64_t);
  std::vector<std::string_view> strings;
  strings.reserve(count);
  uint64_t prev = 0;
  for (size_t i = 0; i < count; ++i) {
    uint64_t end;
    std::memcpy(&end, base + i * sizeof(uint64_t), sizeof(end));
    if (end < prev || end > blob_size) {
      return Status::InvalidArgument("corrupt string table offsets");
    }
    strings.emplace_back(blob + prev, end - prev);
    prev = end;
  }
  if (prev != blob_size) {
    return Status::InvalidArgument(
        "string table blob larger than its offsets declare");
  }
  return strings;
}

// The alias_dict payload as the unsigned-char span FrozenAliasDict::Parse
// consumes.
std::span<const unsigned char> AliasDictPayload(
    std::span<const std::byte> bytes, const SectionEntry& entry) {
  return {reinterpret_cast<const unsigned char*>(bytes.data()) +
              entry.offset,
          static_cast<size_t>(entry.byte_size)};
}

Status CheckRecordSection(const SectionEntry& entry, const char* what) {
  if (entry.item_count > std::numeric_limits<int32_t>::max()) {
    return Status::InvalidArgument(std::string("implausible count in ") +
                                   what);
  }
  if (entry.byte_size != entry.item_count * kRecordBytes) {
    return Status::InvalidArgument(
        std::string("section length disagrees with declared count: ") +
        what);
  }
  return Status::Ok();
}

// ---- load metrics ---------------------------------------------------------

void RecordLoad(const char* store, const char* format, double ms,
                size_t mapped_bytes) {
  obs::MetricsRegistry* registry = obs::MetricsRegistry::Default();
  registry
      ->GetHistogram("tenet_kb_load_ms",
                     "Snapshot load latency by store and format",
                     obs::LabelPair("store", store) + "," +
                         obs::LabelPair("format", format))
      ->Observe(ms);
  if (mapped_bytes > 0) {
    registry
        ->GetCounter("tenet_kb_bytes_mapped_total",
                     "Bytes served zero-copy from mmapped snapshots",
                     obs::LabelPair("store", store))
        ->Increment(static_cast<int64_t>(mapped_bytes));
  }
}


// The float count a TENETEMB1 header {dim, entities, predicates} declares,
// validated against the file size.  The concept count is bounded by the
// payload before it is multiplied by the dimension, so a crafted header
// cannot wrap the size arithmetic mod 2^64 into a plausible file size.
Result<uint64_t> CheckEmbeddingHeader(const int32_t header[3],
                                      uint64_t file_bytes) {
  if (header[0] <= 0 || header[1] < 0 || header[2] < 0) {
    return Status::InvalidArgument("bad embedding header");
  }
  const uint64_t dimension = static_cast<uint64_t>(header[0]);
  const uint64_t concepts = static_cast<uint64_t>(header[1]) +
                            static_cast<uint64_t>(header[2]);
  const uint64_t payload_floats =
      (file_bytes - kEmbHeaderBytes) / sizeof(float);
  if (concepts > payload_floats / dimension ||
      kEmbHeaderBytes + dimension * concepts * sizeof(float) != file_bytes) {
    // A truncated write or trailing bytes; either way, nothing is
    // populated.
    return Status::InvalidArgument(
        "embedding payload disagrees with its header: " +
        std::to_string(file_bytes) + " bytes for dim " +
        std::to_string(dimension) + " x " + std::to_string(concepts) +
        " concepts");
  }
  return dimension * concepts;
}

// ---- TENETKB2 reader ------------------------------------------------------

Result<KnowledgeBase> DecodeKnowledgeBase(std::span<const std::byte> bytes) {
  TENET_ASSIGN_OR_RETURN(SnapshotLayout layout, ParseSnapshotLayout(bytes));
  TENET_ASSIGN_OR_RETURN(
      std::vector<std::string_view> strings,
      ParseStringTable(bytes, layout.section(kSectionStrings)));

  auto string_at = [&strings](uint32_t ref,
                              const char* what) -> Result<std::string_view> {
    if (ref >= strings.size()) {
      return Status::InvalidArgument(
          std::string("string reference out of range in ") + what);
    }
    return strings[ref];
  };

  const SectionEntry& entities = layout.section(kSectionEntities);
  const SectionEntry& predicates = layout.section(kSectionPredicates);
  const SectionEntry& facts = layout.section(kSectionFacts);
  TENET_RETURN_IF_ERROR(CheckRecordSection(entities, "entities"));
  TENET_RETURN_IF_ERROR(CheckRecordSection(predicates, "predicates"));
  TENET_RETURN_IF_ERROR(CheckRecordSection(facts, "facts"));
  KnowledgeBase kb;
  kb.Reserve(static_cast<int32_t>(entities.item_count),
             static_cast<int32_t>(predicates.item_count),
             static_cast<int32_t>(facts.item_count));

  ByteReader entity_reader(bytes.data() + entities.offset);
  for (uint64_t i = 0; i < entities.item_count; ++i) {
    uint32_t label_ref = entity_reader.Read<uint32_t>();
    int32_t type = entity_reader.Read<int32_t>();
    int32_t domain = entity_reader.Read<int32_t>();
    entity_reader.Read<int32_t>();  // padding
    double popularity = entity_reader.Read<double>();
    TENET_ASSIGN_OR_RETURN(std::string_view label,
                           string_at(label_ref, "entities"));
    if (type < 0 || type >= kNumEntityTypes) {
      return Status::InvalidArgument("bad entity type in snapshot");
    }
    if (!std::isfinite(popularity) || popularity <= 0.0) {
      return Status::InvalidArgument("non-positive entity popularity");
    }
    kb.AddEntity(label, static_cast<EntityType>(type), domain, popularity,
                 /*register_label_alias=*/false);
  }

  ByteReader predicate_reader(bytes.data() + predicates.offset);
  for (uint64_t i = 0; i < predicates.item_count; ++i) {
    uint32_t label_ref = predicate_reader.Read<uint32_t>();
    int32_t domain = predicate_reader.Read<int32_t>();
    predicate_reader.Read<int32_t>();  // padding
    predicate_reader.Read<int32_t>();  // padding
    double popularity = predicate_reader.Read<double>();
    TENET_ASSIGN_OR_RETURN(std::string_view label,
                           string_at(label_ref, "predicates"));
    if (!std::isfinite(popularity) || popularity <= 0.0) {
      return Status::InvalidArgument("non-positive predicate popularity");
    }
    kb.AddPredicate(label, domain, popularity,
                    /*register_label_alias=*/false);
  }

  // The alias dictionary is parsed (and fully validated against the
  // concept counts just loaded) and adopted wholesale: its priors are the
  // finalized ones, restored bit-exactly instead of renormalized.
  const SectionEntry& dict_entry = layout.section(kSectionAliasDict);
  TENET_ASSIGN_OR_RETURN(
      std::shared_ptr<const FrozenAliasDict> dict,
      FrozenAliasDict::Parse(
          AliasDictPayload(bytes, dict_entry),
          FrozenAliasDict::ParseLimits{kb.num_entities(),
                                       kb.num_predicates()}));
  if (dict->num_postings() != dict_entry.item_count) {
    return Status::InvalidArgument(
        "alias_dict item count disagrees with its payload");
  }
  kb.AdoptAliasState(std::move(dict));

  ByteReader fact_reader(bytes.data() + facts.offset);
  for (uint64_t i = 0; i < facts.item_count; ++i) {
    int32_t subject = fact_reader.Read<int32_t>();
    int32_t predicate = fact_reader.Read<int32_t>();
    int32_t object_kind = fact_reader.Read<int32_t>();
    int32_t object_entity = fact_reader.Read<int32_t>();
    uint32_t literal_ref = fact_reader.Read<uint32_t>();
    fact_reader.Read<uint32_t>();  // padding
    if (object_kind == 0) {
      TENET_RETURN_IF_ERROR(kb.AddFact(subject, predicate, object_entity));
    } else if (object_kind == 1) {
      TENET_ASSIGN_OR_RETURN(std::string_view literal,
                             string_at(literal_ref, "facts"));
      TENET_RETURN_IF_ERROR(kb.AddLiteralFact(subject, predicate, literal));
    } else {
      return Status::InvalidArgument("bad fact object kind");
    }
  }

  kb.Finalize();
  return kb;
}

}  // namespace

// ---- TENETKB2 writer ------------------------------------------------------

Status SaveKnowledgeBase(const KnowledgeBase& kb, const std::string& path) {
  if (!kb.finalized()) {
    return Status::FailedPrecondition("KB must be finalized before saving");
  }
  StringTableBuilder strings;

  ByteWriter entities;
  for (EntityId id = 0; id < kb.num_entities(); ++id) {
    const EntityRecord& rec = kb.entity(id);
    entities.Append<uint32_t>(strings.Intern(rec.label));
    entities.Append<int32_t>(static_cast<int32_t>(rec.type));
    entities.Append<int32_t>(rec.domain);
    entities.Append<int32_t>(0);
    entities.Append<double>(rec.popularity);
  }

  ByteWriter predicates;
  for (PredicateId id = 0; id < kb.num_predicates(); ++id) {
    const PredicateRecord& rec = kb.predicate(id);
    predicates.Append<uint32_t>(strings.Intern(rec.label));
    predicates.Append<int32_t>(rec.domain);
    predicates.Append<int32_t>(0);
    predicates.Append<int32_t>(0);
    predicates.Append<double>(rec.popularity);
  }

  ByteWriter facts;
  for (const Triple& t : kb.facts()) {
    facts.Append<int32_t>(t.subject);
    facts.Append<int32_t>(t.predicate);
    facts.Append<int32_t>(t.object_is_entity ? 0 : 1);
    facts.Append<int32_t>(t.object_is_entity ? t.object_entity : 0);
    facts.Append<uint32_t>(
        t.object_is_entity ? 0 : strings.Intern(t.object_literal));
    facts.Append<uint32_t>(0);
  }

  // Postings persist as the frozen alias dictionary: finalized priors in
  // their finalized (descending-prior) order, surfaces sorted by folded
  // bytes — so two saves of the same KB emit byte-identical snapshots.
  const FrozenAliasDict& dict = *kb.alias_index().frozen_dict();
  const std::vector<unsigned char> alias_dict = dict.Serialize();

  ByteWriter string_table;
  strings.Serialize(&string_table);

  struct Pending {
    uint32_t id;
    std::span<const unsigned char> payload;
    uint64_t item_count;
  };
  auto bytes_of = [](const ByteWriter& w) {
    return std::span<const unsigned char>(w.data(), w.size());
  };
  const Pending sections[kNumSections] = {
      {kSectionStrings, bytes_of(string_table), strings.size()},
      {kSectionEntities, bytes_of(entities),
       static_cast<uint64_t>(kb.num_entities())},
      {kSectionPredicates, bytes_of(predicates),
       static_cast<uint64_t>(kb.num_predicates())},
      {kSectionFacts, bytes_of(facts), static_cast<uint64_t>(kb.num_facts())},
      {kSectionAliasDict, alias_dict, dict.num_postings()},
  };

  ByteWriter table;
  uint64_t offset = kHeaderBytes + kNumSections * kSectionEntryBytes;
  for (const Pending& s : sections) {
    table.Append<uint32_t>(s.id);
    table.Append<uint32_t>(0);
    table.Append<uint64_t>(offset);
    table.Append<uint64_t>(static_cast<uint64_t>(s.payload.size()));
    table.Append<uint64_t>(s.item_count);
    offset += AlignUp8(s.payload.size());
  }
  const uint64_t file_size = offset;

  // The whole snapshot is assembled in memory and lands on disk through
  // AtomicWriteFile (temp + fsync + rename): a crash mid-write can no
  // longer tear `path` — the previous snapshot stays readable until the
  // rename, and the rename is atomic.
  ByteWriter file;
  file.AppendBytes(kKbMagic, sizeof(kKbMagic));
  file.Append<uint32_t>(kEndianTag);
  file.Append<uint32_t>(kNumSections);
  file.Append<uint64_t>(file_size);
  file.Append<uint64_t>(Fnv1a64(table.data(), table.size()));
  file.AppendBytes(table.data(), table.size());
  for (const Pending& s : sections) {
    file.AppendBytes(s.payload.data(), s.payload.size());
    file.PadTo8();
  }
  TENET_CHECK_EQ(file.size(), file_size);

  if (TENET_FAULT_POINT("kb/io/write_truncation")) {
    return SimulateTornWrite(path, file.data(), file.size(), "snapshot");
  }
  return AtomicWriteFile(path, file.data(), file.size());
}

Result<KnowledgeBase> LoadKnowledgeBase(const std::string& path,
                                        const KbLoadOptions& options) {
  if (TENET_FAULT_POINT("kb/io/load_kb")) {
    return Status::DataLoss("injected fault: kb load failed: " + path);
  }
  WallTimer timer;
  TENET_ASSIGN_OR_RETURN(MmapFile file,
                         MmapFile::Open(path, options.prefer_mmap));
  TENET_ASSIGN_OR_RETURN(KnowledgeBase kb, DecodeKnowledgeBase(file.bytes()));
  RecordLoad("kb", file.zero_copy() ? "binary_mmap" : "binary",
             timer.ElapsedMillis(), file.zero_copy() ? file.size() : 0);
  return kb;
}

Status SaveEmbeddings(const embedding::EmbeddingStore& store,
                      const std::string& path) {
  if (!store.finalized()) {
    return Status::FailedPrecondition(
        "embeddings must be finalized before saving");
  }
  ByteWriter out;
  out.AppendBytes(kEmbMagic, sizeof(kEmbMagic) - 1);
  int32_t header[3] = {store.dimension(), store.num_entities(),
                       store.num_predicates()};
  out.AppendBytes(header, sizeof(header));
  auto dump = [&out, &store](ConceptRef ref) {
    std::span<const float> v = store.Vector(ref);
    out.AppendBytes(v.data(), v.size() * sizeof(float));
  };
  for (EntityId e = 0; e < store.num_entities(); ++e) {
    dump(ConceptRef::Entity(e));
  }
  for (PredicateId p = 0; p < store.num_predicates(); ++p) {
    dump(ConceptRef::Predicate(p));
  }
  if (TENET_FAULT_POINT("kb/io/write_truncation")) {
    return SimulateTornWrite(path, out.data(), out.size(), "matrix");
  }
  return AtomicWriteFile(path, out.data(), out.size());
}

Result<embedding::EmbeddingStore> LoadEmbeddings(
    const std::string& path, const KbLoadOptions& options) {
  if (TENET_FAULT_POINT("kb/io/load_embeddings")) {
    return Status::DataLoss("injected fault: embedding load failed: " + path);
  }
  WallTimer timer;
  TENET_ASSIGN_OR_RETURN(MmapFile file,
                         MmapFile::Open(path, options.prefer_mmap));
  std::span<const std::byte> bytes = file.bytes();
  constexpr size_t kMagicBytes = sizeof(kEmbMagic) - 1;
  if (bytes.size() < kEmbHeaderBytes ||
      std::memcmp(bytes.data(), kEmbMagic, kMagicBytes) != 0) {
    return Status::InvalidArgument("not a TENETEMB1 file: " + path);
  }
  int32_t header[3];
  std::memcpy(header, bytes.data() + kMagicBytes, sizeof(header));
  TENET_ASSIGN_OR_RETURN(const uint64_t count,
                         CheckEmbeddingHeader(header, bytes.size()));
  embedding::EmbeddingStore store(header[0], header[1], header[2]);
  // Bulk load straight from the mapped payload — one copy, one norm pass,
  // non-finite payloads rejected as DataLoss.
  TENET_RETURN_IF_ERROR(store.LoadMatrix(
      bytes.data() + kEmbHeaderBytes, static_cast<size_t>(count)));
  RecordLoad("embeddings", file.zero_copy() ? "binary_mmap" : "binary",
             timer.ElapsedMillis(), file.zero_copy() ? file.size() : 0);
  return store;
}

Result<KbFileInfo> InspectKnowledgeBaseFile(const std::string& path) {
  TENET_ASSIGN_OR_RETURN(MmapFile file, MmapFile::Open(path));
  TENET_ASSIGN_OR_RETURN(SnapshotLayout layout,
                         ParseSnapshotLayout(file.bytes()));
  KbFileInfo info;
  info.file_bytes = file.size();
  for (const SectionEntry& entry : layout.table) {
    info.sections.push_back(KbSectionInfo{SectionName(entry.id),
                                          entry.byte_size,
                                          entry.item_count});
  }
  info.entities =
      static_cast<int64_t>(layout.section(kSectionEntities).item_count);
  info.predicates =
      static_cast<int64_t>(layout.section(kSectionPredicates).item_count);
  info.facts = static_cast<int64_t>(layout.section(kSectionFacts).item_count);
  TENET_ASSIGN_OR_RETURN(
      FrozenAliasDict::Stats stats,
      FrozenAliasDict::ReadStats(
          AliasDictPayload(file.bytes(), layout.section(kSectionAliasDict))));
  info.aliases = static_cast<int64_t>(stats.num_postings);
  info.dict_surfaces = stats.num_surfaces;
  info.dict_key_bytes = stats.key_blob_bytes;
  info.dict_raw_key_bytes = stats.raw_key_bytes;
  return info;
}

Result<EmbFileInfo> InspectEmbeddingsFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  char magic[sizeof(kEmbMagic) - 1];
  in.read(magic, sizeof(magic));
  if (!in || std::string_view(magic, sizeof(magic)) != kEmbMagic) {
    return Status::InvalidArgument("not a TENETEMB1 file: " + path);
  }
  int32_t header[3];
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  if (!in) return Status::InvalidArgument("bad embedding header");
  in.seekg(0, std::ios::end);
  EmbFileInfo info;
  info.file_bytes = static_cast<uint64_t>(in.tellg());
  TENET_RETURN_IF_ERROR(
      CheckEmbeddingHeader(header, info.file_bytes).status());
  info.dimension = header[0];
  info.entities = header[1];
  info.predicates = header[2];
  return info;
}

text::Gazetteer DeriveGazetteer(const KnowledgeBase& kb) {
  TENET_CHECK(kb.finalized());
  const FrozenAliasDict& dict = *kb.alias_index().frozen_dict();
  text::Gazetteer gazetteer;
  gazetteer.Reserve(dict.num_surfaces(), dict.stats().raw_key_bytes);
  dict.VisitKeyEntities([&](std::string_view key,
                            std::span<const AliasPosting> entities) {
    if (entities.empty()) return;
    // The maximum, not the first posting: a delta-touched list is only
    // stably sorted by prior, so a tie need not lead with the lower id.
    const AliasPosting* best = &entities[0];
    for (const AliasPosting& posting : entities.subspan(1)) {
      if (posting.prior > best->prior ||
          (posting.prior == best->prior &&
           posting.concept_ref.id < best->concept_ref.id)) {
        best = &posting;
      }
    }
    gazetteer.AddSurface(key, kb.entity(best->concept_ref.id).type,
                         IsAsciiLowerChar(key[0]));
  });
  return gazetteer;
}

}  // namespace kb
}  // namespace tenet
