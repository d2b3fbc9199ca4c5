#include "telemetry/json_reader.hpp"

#include <charconv>
#include <limits>
#include <system_error>

namespace aegis::telemetry {

namespace {

const JsonValue kNullValue{};

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing garbage after JSON document");
    }
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw JsonParseError("json_reader: " + msg + " at offset " +
                         std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        // A throw abandons the whole parse, so only a clean return unwinds.
        if (++depth_ > kJsonMaxDepth) fail("nesting too deep");
        JsonValue v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"':
        return parse_string();
      case 't':
      case 'f':
      case 'n':
        return parse_keyword();
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      JsonValue key = parse_string();
      skip_ws();
      expect(':');
      v.object[std::move(key.string)] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue parse_string() {
    expect('"');
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    while (peek() != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        const char esc = peek();
        ++pos_;
        switch (esc) {
          case '"':
            v.string += '"';
            break;
          case '\\':
            v.string += '\\';
            break;
          case '/':
            v.string += '/';
            break;
          case 'n':
            v.string += '\n';
            break;
          case 't':
            v.string += '\t';
            break;
          case 'r':
            v.string += '\r';
            break;
          case 'b':
            v.string += '\b';
            break;
          case 'f':
            v.string += '\f';
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                fail("bad hex digit in \\u escape");
              }
            }
            // The trace exporter only escapes control characters; decode the
            // Latin-1 subset and pass anything else through as '?'.
            v.string += code < 0x100 ? static_cast<char>(code) : '?';
            break;
          }
          default:
            fail("unknown escape");
        }
      } else {
        v.string += c;
      }
    }
    ++pos_;  // closing quote
    return v;
  }

  JsonValue parse_keyword() {
    JsonValue v;
    if (consume_literal("true")) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
    } else if (consume_literal("false")) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = false;
    } else if (consume_literal("null")) {
      v.kind = JsonValue::Kind::kNull;
    } else {
      fail("unknown keyword");
    }
    return v;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// Consumes a run of decimal digits; returns how many.
  std::size_t digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ - start;
  }

  /// RFC 8259 grammar, checked before conversion:
  ///   -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  /// std::from_chars then converts without consulting the C locale.
  JsonValue parse_number() {
    const std::size_t start = pos_;
    const bool minus = consume('-');
    const char lead = pos_ < text_.size() ? text_[pos_] : '\0';
    if (lead < '0' || lead > '9') {
      fail(minus ? "malformed number" : "expected a value");
    }
    if (consume('0')) {
      if (digits() != 0) fail("malformed number: leading zero");
    } else {
      (void)digits();
    }
    if (consume('.') && digits() == 0) fail("malformed number");
    if (consume('e') || consume('E')) {
      if (!consume('+')) (void)consume('-');
      if (digits() == 0) fail("malformed number");
    }
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    const char* end = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(text_.data() + start, end, v.number);
    // Overflow and underflow both report result_out_of_range.
    if (ec == std::errc::result_out_of_range) fail("number out of range");
    if (ec != std::errc() || ptr != end) fail("malformed number");
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // open arrays and objects
};

}  // namespace

const JsonValue& JsonValue::at(std::string_view key) const {
  if (kind == Kind::kObject) {
    const auto it = object.find(std::string(key));
    if (it != object.end()) return it->second;
  }
  return kNullValue;
}

std::uint64_t JsonValue::as_u64() const noexcept {
  if (kind != Kind::kNumber || number < 0.0) return 0;
  // 2^64: the conversion is undefined at and above it.
  if (number >= 18446744073709551616.0) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return static_cast<std::uint64_t>(number);
}

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace aegis::telemetry
