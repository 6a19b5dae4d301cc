#include "text/tokenizer.h"

#include <limits>

#include "common/string_util.h"
#include "common/utf8.h"
#include "text/lemmatizer.h"

namespace tenet {
namespace text {
namespace {

bool IsWordChar(char c) { return IsAsciiAlnumChar(c) || c == '\''; }

bool IsSentenceTerminator(char c) { return c == '.' || c == '!' || c == '?'; }

bool IsPunct(char c) {
  switch (c) {
    case '.':
    case ',':
    case ':':
    case ';':
    case '!':
    case '?':
    case '(':
    case ')':
    case '"':
    case '-':
      return true;
    default:
      return false;
  }
}

// Width of the word-run step starting at s[i]: 1 for an ASCII word char,
// the sequence length for a valid multi-byte UTF-8 sequence, 1 for an
// intra-word hyphen whose right side is a word step, 0 if the run ends.
size_t WordStep(std::string_view s, size_t i, size_t begin) {
  const char c = s[i];
  if (IsWordChar(c)) return 1;
  if (static_cast<unsigned char>(c) >= 0x80) {
    const size_t len = Utf8SequenceLength(s.data() + i, s.size() - i);
    return len >= 2 ? len : 0;  // invalid byte ends the run
  }
  if (c == '-' && i > begin && i + 1 < s.size()) {
    // keep intra-word hyphens: "co-author"
    const char next = s[i + 1];
    if (IsWordChar(next)) return 1;
    if (static_cast<unsigned char>(next) >= 0x80 &&
        Utf8SequenceLength(s.data() + i + 1, s.size() - i - 1) >= 2) {
      return 1;
    }
  }
  return 0;
}

// Copies the tokens, which still view the input, into the document's own
// buffer: first joined with a space before each non-punctuation token, then
// the folded copy of the same join.  Re-points every Token::t at its copy
// and sets the word-class bits, one ClassifyWord probe per token.
void OwnTokens(TokenizedDocument& doc, size_t joined_size) {
  if (doc.tokens.empty()) return;
  doc.joined_size = joined_size;
  doc.buffer.reset(new char[2 * joined_size]);
  char* joined = doc.buffer.get();
  char* folded = joined + joined_size;
  size_t pos = 0;
  for (Token& token : doc.tokens) {
    const std::string_view text = token.t;
    if (!token.is_punct()) {
      joined[pos] = folded[pos] = ' ';
      ++pos;
      if (IsAsciiUpperChar(text[0])) token.classes |= kCapitalized;
      if (IsAsciiNumber(text)) token.classes |= kNumber;
    }
    for (size_t k = 0; k < text.size(); ++k) {
      joined[pos + k] = text[k];
      folded[pos + k] = AsciiFoldChar(text[k]);
    }
    token.t = std::string_view(joined + pos, text.size());
    const WordClasses word =
        ClassifyWord(std::string_view(folded + pos, text.size()));
    token.classes |= word.classes;
    token.verb = word.verb;
    pos += text.size();
  }
}

TokenizedDocument TokenizeImpl(std::string_view s, const TextLimits* limits,
                               TextGuardReport* report) {
  TokenizedDocument doc;
  const size_t max_token_bytes =
      limits != nullptr ? limits->max_token_bytes
                        : std::numeric_limits<size_t>::max();
  const int max_tokens = limits != nullptr ? limits->max_tokens
                                           : std::numeric_limits<int>::max();
  int sentence = 0;
  bool sentence_open = false;
  size_t i = 0;
  bool capped = false;
  size_t joined_size = 0;
  // Emits s[begin, begin + size) as a token that views the input until
  // OwnTokens copies it.
  auto emit = [&](size_t begin, size_t size, bool is_punct) {
    if (static_cast<int>(doc.tokens.size()) >= max_tokens) {
      capped = true;
      return false;
    }
    if (!sentence_open) {
      doc.sentence_begin.push_back(static_cast<int>(doc.tokens.size()));
      sentence_open = true;
    }
    Token t;
    t.t = s.substr(begin, size);
    t.sentence = sentence;
    if (is_punct) t.classes = kPunct;
    doc.tokens.push_back(t);
    joined_size += size + (is_punct ? 0 : 1);
    return true;
  };

  while (i < s.size() && !capped) {
    char c = s[i];
    if (IsAsciiSpaceChar(c)) {
      ++i;
      continue;
    }
    size_t step = WordStep(s, i, i);
    if (step > 0) {
      const size_t begin = i;
      // `cut` is the largest step boundary within the token-byte budget;
      // clipping there never splits a UTF-8 sequence.
      size_t cut = begin;
      while (i < s.size() && (step = WordStep(s, i, begin)) > 0) {
        i += step;
        if (i - begin <= max_token_bytes) cut = i;
      }
      if (i - begin > max_token_bytes) {
        // Oversized run: emit the clipped head, drop the remainder.
        if (report != nullptr) ++report->truncated_tokens;
        if (cut > begin) emit(begin, cut - begin, /*is_punct=*/false);
      } else {
        emit(begin, i - begin, /*is_punct=*/false);
      }
      continue;
    }
    if (IsPunct(c)) {
      if (!emit(i, 1, /*is_punct=*/true)) break;
      ++i;
      if (IsSentenceTerminator(c) && sentence_open) {
        sentence_open = false;
        ++sentence;
      }
      continue;
    }
    // Unknown byte (invalid UTF-8 outside a word run): skip.
    ++i;
  }
  if (capped && report != nullptr) report->token_cap_hit = true;
  OwnTokens(doc, joined_size);
  return doc;
}

}  // namespace

TokenizedDocument Tokenize(std::string_view s) {
  return TokenizeImpl(s, nullptr, nullptr);
}

TokenizedDocument Tokenize(std::string_view s, const TextLimits& limits,
                           TextGuardReport* report) {
  return TokenizeImpl(s, &limits, report);
}

}  // namespace text
}  // namespace tenet
