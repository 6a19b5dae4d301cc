#ifndef TENET_TEXT_FEATURES_H_
#define TENET_TEXT_FEATURES_H_

#include <optional>
#include <string>

#include "text/token.h"

namespace tenet {
namespace text {

// The four linguistic feature classes of Sec. 5.1 used to join short-text
// mentions into long-text mentions.
enum class ConnectorKind {
  kConjunction,   // "Romeo and Juliet"
  kPreposition,   // "Storm on the Island"
  kNumber,        // "Apollo 11 mission"
  kPunctuation,   // "Jurassic World: Fallen Kingdom"
};

// A recognized connector between two adjacent short-text mentions.
struct Connector {
  ConnectorKind kind;
  /// Exact text joining the mentions, e.g. "of the" or ":".
  std::string joining_text;
};

/// Classifies the gap doc.tokens[begin, end) between two adjacent
/// short-text mentions from the gap tokens' word-class bits.  Returns
/// nullopt when the gap is not one of the pre-specified linguistic
/// features (then the mentions belong to different mention groups).
/// Recognized gaps: a coordinating conjunction; a preposition optionally
/// followed by a determiner ("of", "on the"); a single number; a single
/// connector punctuation mark.  Word connectors are joined case-folded,
/// numbers and punctuation as written.  Gaps longer than 2 tokens never
/// connect.
std::optional<Connector> ClassifyConnector(const TokenizedDocument& doc,
                                           int begin, int end);

}  // namespace text
}  // namespace tenet

#endif  // TENET_TEXT_FEATURES_H_
