#include "lexer.hpp"

#include <cctype>

namespace aegis::lint {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// True for the identifier spellings that can prefix a raw string literal.
bool raw_string_prefix(std::string_view word) {
  return word == "R" || word == "LR" || word == "uR" || word == "UR" ||
         word == "u8R";
}

/// Parses the text of one comment for an `aegis-lint:` or `aegis-rng:`
/// directive. Returns false when the comment carries none. Tags from the
/// `aegis-rng:` marker come back prefixed "rng-" (see lexer.hpp).
bool parse_directive(std::string_view comment, int line, Directive& out) {
  const std::string_view kMarker = "aegis-lint:";
  const std::string_view kRngMarker = "aegis-rng:";
  bool rng_marker = false;
  std::size_t at = comment.find(kMarker);
  if (at == std::string_view::npos) {
    at = comment.find(kRngMarker);
    if (at == std::string_view::npos) return false;
    rng_marker = true;
  }
  // The marker must START the comment (only whitespace before it). Doc
  // prose that merely MENTIONS the syntax — "use `// aegis-lint: noalloc`"
  // or an indented example inside a comment block — is not a directive.
  for (std::size_t p = 0; p < at; ++p) {
    if (comment[p] != ' ' && comment[p] != '\t' && comment[p] != '\r') {
      return false;
    }
  }
  std::size_t i = at + (rng_marker ? kRngMarker.size() : kMarker.size());
  while (i < comment.size() && std::isspace(static_cast<unsigned char>(comment[i]))) ++i;
  std::size_t tag_begin = i;
  while (i < comment.size() &&
         (ident_char(comment[i]) || comment[i] == '-')) {
    ++i;
  }
  if (i == tag_begin) return false;
  out.tag = (rng_marker ? "rng-" : "") +
            std::string(comment.substr(tag_begin, i - tag_begin));
  out.arg.clear();
  out.line = line;
  while (i < comment.size() && std::isspace(static_cast<unsigned char>(comment[i]))) ++i;
  if (i < comment.size() && comment[i] == '(') {
    // Argument runs to the LAST closing paren so reasons may themselves
    // contain parentheses.
    const std::size_t close = comment.rfind(')');
    if (close != std::string_view::npos && close > i) {
      out.arg = std::string(comment.substr(i + 1, close - i - 1));
      // Trim surrounding whitespace.
      while (!out.arg.empty() && std::isspace(static_cast<unsigned char>(out.arg.front()))) {
        out.arg.erase(out.arg.begin());
      }
      while (!out.arg.empty() && std::isspace(static_cast<unsigned char>(out.arg.back()))) {
        out.arg.pop_back();
      }
    }
  }
  return true;
}

}  // namespace

LexOutput lex(std::string_view src) {
  LexOutput out;
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = src.size();

  auto push = [&](TokenKind kind, std::string text) {
    out.tokens.push_back(Token{kind, std::move(text), line});
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment. A backslash immediately before the newline (optionally
    // with a \r) splices the next line INTO the comment — the compiler
    // deletes backslash-newline before tokenization, so code "after" such a
    // comment is still comment text and must never reach the rules.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      std::size_t end = i;
      int spliced_lines = 0;
      while (true) {
        std::size_t nl = src.find('\n', end);
        if (nl == std::string_view::npos) {
          end = n;
          break;
        }
        std::size_t k = nl;
        if (k > i && src[k - 1] == '\r') --k;
        if (k > i + 1 && src[k - 1] == '\\') {
          ++spliced_lines;
          end = nl + 1;
          continue;
        }
        end = nl;
        break;
      }
      Directive d;
      if (parse_directive(src.substr(i + 2, end - i - 2), line, d)) {
        out.directives.push_back(std::move(d));
      }
      line += spliced_lines;
      i = end;
      continue;
    }
    // Block comment (a directive inside applies at its opening line).
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      std::size_t end = src.find("*/", i + 2);
      const std::size_t stop = end == std::string_view::npos ? n : end + 2;
      Directive d;
      if (parse_directive(src.substr(i + 2, stop - i - 2), line, d)) {
        out.directives.push_back(std::move(d));
      }
      for (std::size_t j = i; j < stop; ++j) {
        if (src[j] == '\n') ++line;
      }
      i = stop;
      continue;
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::size_t j = i + 1;
      while (j < n && src[j] != quote) {
        if (src[j] == '\\' && j + 1 < n) ++j;
        if (src[j] == '\n') ++line;
        ++j;
      }
      const std::size_t stop = j < n ? j + 1 : n;
      push(TokenKind::kString, std::string(src.substr(i + 1, j - i - 1)));
      i = stop;
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && ident_char(src[j])) ++j;
      const std::string_view word = src.substr(i, j - i);
      // Raw string literal, with or without an encoding prefix:
      // R"delim(...)delim", u8R"(...)", uR/UR/LR"(...)". The prefix must be
      // the WHOLE identifier — `FOOR"x"` is an identifier then a plain
      // string, not a raw literal.
      if (j < n && src[j] == '"' && raw_string_prefix(word)) {
        std::size_t d_end = j + 1;
        while (d_end < n && src[d_end] != '(' && src[d_end] != '"' &&
               src[d_end] != '\n') {
          ++d_end;
        }
        if (d_end < n && src[d_end] == '(') {
          std::string close = ")";
          close += src.substr(j + 1, d_end - j - 1);
          close += '"';
          std::size_t end = src.find(close, d_end + 1);
          const std::size_t stop =
              end == std::string_view::npos ? n : end + close.size();
          push(TokenKind::kString, std::string(src.substr(i, stop - i)));
          for (std::size_t k = i; k < stop; ++k) {
            if (src[k] == '\n') ++line;
          }
          i = stop;
          continue;
        }
      }
      push(TokenKind::kIdent, std::string(word));
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      // Good enough for matching purposes: digits, radix letters, dots,
      // digit separators, exponent signs. A digit separator only counts
      // when a digit follows (so `1'000'000` is one number but an
      // apostrophe that opens a char literal is not swallowed), and
      // exponent signs only after e/E in decimal literals or p/P in
      // hex/binary ones — `0x1E+2` is `0x1E` `+` `2`, not one token.
      const bool non_decimal =
          c == '0' && i + 1 < n &&
          (src[i + 1] == 'x' || src[i + 1] == 'X' || src[i + 1] == 'b' ||
           src[i + 1] == 'B');
      std::size_t j = i + 1;
      while (j < n) {
        const char d = src[j];
        if (ident_char(d) || d == '.') {
          ++j;
          continue;
        }
        if (d == '\'' && j + 1 < n &&
            std::isalnum(static_cast<unsigned char>(src[j + 1]))) {
          ++j;
          continue;
        }
        if ((d == '+' || d == '-') &&
            (non_decimal ? (src[j - 1] == 'p' || src[j - 1] == 'P')
                         : (src[j - 1] == 'e' || src[j - 1] == 'E'))) {
          ++j;
          continue;
        }
        break;
      }
      push(TokenKind::kNumber, std::string(src.substr(i, j - i)));
      i = j;
      continue;
    }
    push(TokenKind::kPunct, std::string(1, c));
    ++i;
  }
  return out;
}

}  // namespace aegis::lint
