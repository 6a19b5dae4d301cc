#ifndef TENET_COMMON_STRING_UTIL_H_
#define TENET_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace tenet {

/// Lower-cases exactly the 26 ASCII uppercase letters and leaves every
/// other byte — including bytes >= 0x80, i.e. the middle of any UTF-8
/// sequence — untouched.  This is the only case fold the alias index may
/// use: std::tolower consults the global C locale, so a raw high-bit char
/// is undefined behavior (negative argument) and, under a Latin-1 locale,
/// would fold bytes inside multi-byte sequences and corrupt index keys.
constexpr char AsciiFoldChar(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c + ('a' - 'A')) : c;
}

// Locale-independent ASCII character classes.  The <cctype> functions
// consult the global C locale, so under e.g. a Latin-1 locale
// std::isalnum(0xE9) is true and the tokenizer would split tokens at
// different byte positions than the ASCII-only case fold assumes.  Every
// text-layer classifier routes through these instead: bytes >= 0x80 are
// never space / digit / alpha here, the same contract AsciiFoldChar keeps.

constexpr bool IsAsciiSpaceChar(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}

constexpr bool IsAsciiDigitChar(char c) { return c >= '0' && c <= '9'; }

constexpr bool IsAsciiUpperChar(char c) { return c >= 'A' && c <= 'Z'; }

constexpr bool IsAsciiLowerChar(char c) { return c >= 'a' && c <= 'z'; }

constexpr bool IsAsciiAlphaChar(char c) {
  return IsAsciiLowerChar(c) || IsAsciiUpperChar(c);
}

constexpr bool IsAsciiAlnumChar(char c) {
  return IsAsciiAlphaChar(c) || IsAsciiDigitChar(c);
}

/// Returns `s` with ASCII letters lower-cased (the alias index is
/// case-insensitive, following the paper's Solr setup).  Locale-independent
/// and byte-preserving outside [A-Z]; see AsciiFoldChar.
std::string AsciiToLower(std::string_view s);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Splits on `sep`, dropping empty pieces.
std::vector<std::string> SplitString(std::string_view s, char sep);

/// Joins `pieces` with `sep` between consecutive elements.
std::string JoinStrings(const std::vector<std::string>& pieces,
                        std::string_view sep);

/// Strips leading/trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// True if `s` starts with / ends with the given prefix or suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// True if every character of `s` is an ASCII digit (and `s` is non-empty).
bool IsAsciiNumber(std::string_view s);

/// True if the first character is an ASCII uppercase letter.
bool IsCapitalized(std::string_view s);

// Checked numeric parsing (std::from_chars under the hood): the whole
// string must be consumed, no leading whitespace, locale-independent.
// The CLI and the KB deserializers both route through these — "4x" is
// InvalidArgument, never silently 4 (atoi-style prefix parsing is how a
// typo'd flag or a corrupt field goes unnoticed).

/// Parses a signed decimal integer; InvalidArgument on empty input,
/// trailing garbage, or overflow.
Result<int64_t> ParseInt64(std::string_view s);

/// Parses a floating-point number ("1.5", "1e-3", "inf"); InvalidArgument
/// on empty input, trailing garbage, or out-of-range values.
Result<double> ParseFloat64(std::string_view s);

}  // namespace tenet

#endif  // TENET_COMMON_STRING_UTIL_H_
