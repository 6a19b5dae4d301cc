#include "core/canopy.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <string_view>

#include "common/logging.h"
#include "common/string_util.h"

namespace tenet {
namespace core {
namespace {

// Appends the text that joins two surfaces across `connector`.
// Punctuation connectors bind to the left surface ("Winter Crown: Harvest
// Elegy"); word connectors are space-separated.
void AppendConnector(const text::Connector& connector, std::string& out) {
  if (connector.kind != text::ConnectorKind::kPunctuation) out += ' ';
  out += connector.joining_text;
  out += ' ';
}

void SortUnique(std::vector<int>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

// Interns mentions by surface without building a key: an open-addressing
// table of mention ids, probed with a surface view and compared against
// the interned mention's own surface.  A folding index compares ASCII
// case-insensitively (coreference canonicalization); the relation index
// compares lemmas exactly.
class SurfaceIndex {
 public:
  SurfaceIndex(const std::vector<Mention>* mentions, bool fold)
      : mentions_(mentions), fold_(fold) {}

  /// Empties the index and sizes it for `expected` mentions.
  void Reset(size_t expected) {
    size_t slots = 16;
    while (slots < 2 * expected) slots *= 2;
    slots_.assign(slots, -1);
    size_ = 0;
  }

  /// Id of the mention interned under `surface`, or -1.
  int Find(std::string_view surface) const {
    const size_t mask = slots_.size() - 1;
    for (size_t slot = Hash(surface) & mask;; slot = (slot + 1) & mask) {
      const int id = slots_[slot];
      if (id < 0) return -1;
      const std::string& key = (*mentions_)[id].surface;
      if (fold_ ? EqualsIgnoreCase(key, surface) : key == surface) return id;
    }
  }

  /// Interns mention `id`, whose surface Find does not know yet.
  void Insert(int id) {
    if (2 * (size_ + 1) > slots_.size()) {
      std::vector<int> old = std::move(slots_);
      slots_.assign(2 * old.size(), -1);
      for (int kept : old) {
        if (kept >= 0) Place(kept);
      }
    }
    Place(id);
    ++size_;
  }

 private:
  // FNV-1a over the (folded) bytes.
  uint64_t Hash(std::string_view surface) const {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : surface) {
      h ^= static_cast<unsigned char>(fold_ ? AsciiFoldChar(c) : c);
      h *= 0x100000001b3ULL;
    }
    return h;
  }

  void Place(int id) {
    const size_t mask = slots_.size() - 1;
    size_t slot = Hash((*mentions_)[id].surface) & mask;
    while (slots_[slot] >= 0) slot = (slot + 1) & mask;
    slots_[slot] = id;
  }

  const std::vector<Mention>* mentions_;
  bool fold_;
  std::vector<int> slots_;
  size_t size_ = 0;
};

// One past the last short mention of the feature-linked run at `begin`.
int RunEnd(const text::ExtractionResult& extraction, int begin) {
  const int num_short = static_cast<int>(extraction.mentions.size());
  int end = begin + 1;
  while (end < num_short && extraction.link_after[end - 1].has_value()) {
    ++end;
  }
  return end;
}

// Number of canopies of a run of `n` short mentions.  Below the cap,
// segmentation k merges across boundary b when bit b of k is set; above
// it, segmentation 0 is all-short and segmentation 1 all-merged.
int NumCanopies(int n, const CanopyOptions& options) {
  if (n <= 1 || !options.enable_long_variants) return 1;
  if (n <= kMaxGroupSizeForFullEnumeration) return 1 << (n - 1);
  return 2;
}

// Upper bound on the long-text variants of a run of `n` short mentions:
// one per block of two or more shorts that some canopy holds.
size_t MaxLongVariants(int n, const CanopyOptions& options) {
  const int canopies = NumCanopies(n, options);
  if (canopies == 1) return 0;
  if (canopies == 2) return 1;
  return static_cast<size_t>(n) * (n - 1) / 2;
}

}  // namespace

int64_t NumContiguousSegmentations(int n) {
  if (n <= 1) return 1;
  if (n >= 64) return std::numeric_limits<int64_t>::max();
  return int64_t{1} << (n - 1);
}

MentionSet BuildMentionSet(const text::ExtractionResult& extraction,
                           const text::Gazetteer* gazetteer,
                           const CanopyOptions& options) {
  TENET_CHECK(gazetteer != nullptr);
  MentionSet set;
  const int num_short = static_cast<int>(extraction.mentions.size());

  // ---- Step 1: size the runs of feature-linked short mentions -------------
  size_t max_mentions = extraction.relations.size();
  size_t max_groups = extraction.relations.size();
  size_t singletons = 0;
  for (int begin = 0; begin < num_short;) {
    const int end = RunEnd(extraction, begin);
    const int n = end - begin;
    max_mentions += n + MaxLongVariants(n, options);
    ++max_groups;
    if (n == 1) ++singletons;
    begin = end;
  }
  set.mentions.reserve(max_mentions);
  set.groups.reserve(max_groups);

  // Coreference canonicalization for singleton groups: one mention per
  // case-folded surface across the document.
  SurfaceIndex singleton_index(&set.mentions, /*fold=*/true);
  singleton_index.Reset(singletons);
  // Variants are interned per group, by case-folded surface too.
  SurfaceIndex variant_index(&set.mentions, /*fold=*/true);
  std::string surface;  // the variant being joined
  std::string folded;   // its folded copy, the gazetteer's probe

  auto add_singleton_group = [&set](int id) {
    MentionGroup& group = set.groups.emplace_back();
    group.members = {id};
    group.short_mentions = {id};
    group.canopies = {Canopy{{id}}};
  };

  for (int run_begin = 0; run_begin < num_short;) {
    const int run_end = RunEnd(extraction, run_begin);
    const int n = run_end - run_begin;
    if (n == 1) {
      const text::ShortMention& sm = extraction.mentions[run_begin];
      run_begin = run_end;
      const int existing = singleton_index.Find(sm.surface);
      if (existing >= 0) {
        std::vector<int>& sentences = set.mentions[existing].sentences;
        sentences.push_back(sm.sentence);
        SortUnique(sentences);
        continue;
      }
      Mention& mention = set.mentions.emplace_back();
      mention.kind = Mention::Kind::kNoun;
      mention.surface = sm.surface;
      mention.type = sm.type;
      mention.sentences = {sm.sentence};
      mention.group = set.num_groups();
      const int id = set.num_mentions() - 1;
      singleton_index.Insert(id);
      add_singleton_group(id);
      continue;
    }

    // ---- Multi-mention group: enumerate canopies -------------------------
    const int group_id = set.num_groups();
    MentionGroup& group = set.groups.emplace_back();
    // Mentions of a linked run share one sentence (links never cross
    // sentence boundaries).
    const int sentence = extraction.mentions[run_begin].sentence;
    variant_index.Reset(n + MaxLongVariants(n, options));

    // Interns the noun mention whose surface is `text`; `type` is asked
    // only for a surface new to the group.
    auto intern_mention = [&](std::string_view text, auto type) -> int {
      const int known = variant_index.Find(text);
      if (known >= 0) return known;
      Mention& mention = set.mentions.emplace_back();
      mention.kind = Mention::Kind::kNoun;
      mention.surface = std::string(text);
      mention.type = type();
      mention.sentences = {sentence};
      mention.group = group_id;
      const int id = set.num_mentions() - 1;
      variant_index.Insert(id);
      group.members.push_back(id);
      return id;
    };

    // Short mentions first (every canopy is built from them).
    group.short_mentions.reserve(n);
    for (int i = run_begin; i < run_end; ++i) {
      const text::ShortMention& sm = extraction.mentions[i];
      group.short_mentions.push_back(
          intern_mention(sm.surface, [&sm] { return sm.type; }));
    }

    // The long-text variant joining short mentions first..last of the run,
    // typed by the gazetteer entry of its folded surface.
    auto long_variant = [&](int first, int last) -> int {
      surface = extraction.mentions[run_begin + first].surface;
      for (int i = first; i < last; ++i) {
        const std::optional<text::Connector>& conn =
            extraction.link_after[run_begin + i];
        TENET_CHECK(conn.has_value());
        AppendConnector(*conn, surface);
        surface += extraction.mentions[run_begin + i + 1].surface;
      }
      return intern_mention(
          surface, [&]() -> std::optional<kb::EntityType> {
            folded.resize(surface.size());
            std::transform(surface.begin(), surface.end(), folded.begin(),
                           AsciiFoldChar);
            const text::Gazetteer::Entry* entry =
                gazetteer->FindFolded(folded);
            if (entry == nullptr) return std::nullopt;
            return entry->type;
          });
    };

    const int num_canopies = NumCanopies(n, options);
    const bool full = n <= kMaxGroupSizeForFullEnumeration;
    group.canopies.resize(num_canopies);
    for (int k = 0; k < num_canopies; ++k) {
      // Whether segmentation k merges mentions b and b+1 (see NumCanopies).
      auto merges = [&](int b) { return full ? ((k >> b) & 1) != 0 : k == 1; };
      Canopy& canopy = group.canopies[k];
      canopy.mentions.reserve(full ? n - std::popcount(static_cast<unsigned>(k))
                                   : (k == 0 ? n : 1));
      int block_first = 0;
      for (int b = 0; b < n; ++b) {
        if (b + 1 < n && merges(b)) continue;
        canopy.mentions.push_back(block_first == b
                                      ? group.short_mentions[b]
                                      : long_variant(block_first, b));
        block_first = b + 1;
      }
    }
    run_begin = run_end;
  }

  // ---- Relational mentions: one per distinct lemma ------------------------
  SurfaceIndex relation_index(&set.mentions, /*fold=*/false);
  relation_index.Reset(extraction.relations.size());
  for (const text::ExtractedRelation& rel : extraction.relations) {
    const int existing = relation_index.Find(rel.lemma);
    if (existing >= 0) {
      std::vector<int>& sentences = set.mentions[existing].sentences;
      sentences.push_back(rel.sentence);
      SortUnique(sentences);
      continue;
    }
    Mention& mention = set.mentions.emplace_back();
    mention.kind = Mention::Kind::kRelational;
    mention.surface = rel.lemma;
    mention.sentences = {rel.sentence};
    mention.group = set.num_groups();
    const int id = set.num_mentions() - 1;
    relation_index.Insert(id);
    add_singleton_group(id);
  }
  return set;
}

}  // namespace core
}  // namespace tenet
