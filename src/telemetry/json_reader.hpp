// Minimal JSON reader for telemetry snapshots.
//
// Aegis has no external JSON dependency; this recursive-descent parser covers
// exactly what the snapshot/trace exporters emit (objects, arrays, strings
// with the escapes json_escape produces, numbers, booleans, null). It exists
// so tools/aegis_top and the exporter round-trip tests can consume snapshots
// without adding a library. Snapshots are read from disk, so the input is
// untrusted: nesting is bounded (kJsonMaxDepth), numbers must be finite, and
// anything else malformed throws JsonParseError.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace aegis::telemetry {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  // Ordered map keeps traversal deterministic.
  std::map<std::string, JsonValue> object;

  bool is_null() const noexcept { return kind == Kind::kNull; }
  bool is_object() const noexcept { return kind == Kind::kObject; }
  bool is_array() const noexcept { return kind == Kind::kArray; }
  bool is_number() const noexcept { return kind == Kind::kNumber; }
  bool is_string() const noexcept { return kind == Kind::kString; }

  /// Object member lookup; returns a shared null value when absent.
  const JsonValue& at(std::string_view key) const;
  /// Number as uint64 (truncating, saturating at the uint64 maximum); 0
  /// when not a number or negative.
  std::uint64_t as_u64() const noexcept;
};

struct JsonParseError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Deepest nesting of arrays and objects parse_json accepts. The exporters
/// nest at most four levels; the bound keeps a hostile document from
/// exhausting the parser's stack.
inline constexpr std::size_t kJsonMaxDepth = 64;

/// Parses one JSON document; throws JsonParseError on malformed input,
/// nesting deeper than kJsonMaxDepth, a number that does not fit a finite
/// double, or trailing garbage.
JsonValue parse_json(std::string_view text);

}  // namespace aegis::telemetry
