#ifndef TENET_CORE_CANOPY_H_
#define TENET_CORE_CANOPY_H_

#include <cstdint>

#include "core/mention.h"
#include "text/extraction.h"
#include "text/gazetteer.h"

namespace tenet {
namespace core {

/// Groups with more short mentions than this skip full canopy enumeration
/// (2^(n-1) segmentations) and keep only the all-short and all-merged
/// segmentations, however long the group.  Natural text rarely chains > 4
/// mentions.
inline constexpr int kMaxGroupSizeForFullEnumeration = 8;

// Knobs of mention-set construction.
struct CanopyOptions {
  /// Ablation switch: when false, no long-text variants are generated —
  /// every group keeps only its all-short canopy (a short-only spotter,
  /// like the Falcon/EARL baselines).
  bool enable_long_variants = true;
};

// Builds the mention universe of a document from the extractor's output:
//   * partitions short-text noun mentions into mention groups by the
//     feature links (Algorithm 4, lines 1-9);
//   * enumerates each group's canopies — all contiguous segmentations of
//     its short-mention sequence, materializing long-text variants joined
//     by the connector text (Algorithm 4, CanopyGeneration);
//   * canonicalizes repeated surfaces of singleton groups into one mention
//     (coreference canonicalization, Sec. 6.1);
//   * adds one relational mention per distinct lemma, each its own
//     singleton group.
//
// `gazetteer` types the generated long-text variants; may not be null.
MentionSet BuildMentionSet(const text::ExtractionResult& extraction,
                           const text::Gazetteer* gazetteer,
                           const CanopyOptions& options = {});

/// Number of contiguous segmentations of a sequence of `n` short mentions:
/// 2^(n-1), saturating at INT64_MAX once that no longer fits (n >= 64).
/// Exposed for tests and sizing heuristics.
int64_t NumContiguousSegmentations(int n);

}  // namespace core
}  // namespace tenet

#endif  // TENET_CORE_CANOPY_H_
