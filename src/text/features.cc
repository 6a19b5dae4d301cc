#include "text/features.h"

namespace tenet {
namespace text {

std::optional<Connector> ClassifyConnector(const TokenizedDocument& doc,
                                           int begin, int end) {
  if (end <= begin || end - begin > 2) return std::nullopt;
  const Token& first = doc.tokens[begin];
  auto folded = [&] { return std::string(doc.Folded(begin, end)); };

  if (end - begin == 1) {
    if (first.is(kConjunction)) {
      return Connector{ConnectorKind::kConjunction, folded()};
    }
    if (first.is(kPreposition)) {
      return Connector{ConnectorKind::kPreposition, folded()};
    }
    if (first.is(kNumber)) {
      return Connector{ConnectorKind::kNumber, std::string(first.t)};
    }
    if (first.is(kConnectorPunct)) {
      return Connector{ConnectorKind::kPunctuation, std::string(first.t)};
    }
    return std::nullopt;
  }

  // Two tokens: preposition + determiner ("on the", "of the").
  if (first.is(kPreposition) && doc.tokens[begin + 1].is(kDeterminer)) {
    return Connector{ConnectorKind::kPreposition, folded()};
  }
  return std::nullopt;
}

}  // namespace text
}  // namespace tenet
