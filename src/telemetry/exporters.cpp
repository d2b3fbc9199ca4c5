#include "telemetry/exporters.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

namespace aegis::telemetry {

namespace {

/// Fixed-format double: enough digits to round-trip the values we emit while
/// staying locale-independent and byte-stable across platforms.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return std::string(buf);
}

/// JSON has no infinity or NaN, and a gauge is a caller-set double that
/// may hold either; the snapshot writes them as null.
std::string fmt_json_double(double v) {
  return std::isfinite(v) ? fmt_double(v) : std::string("null");
}

std::string fmt_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return std::string(buf);
}

/// JSON string escape for the restricted names/outcomes we emit.
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

void write_json_snapshot(const MetricsSnapshot& snap, std::ostream& os) {
  os << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    \""
       << json_escape(snap.counters[i].name)
       << "\": " << fmt_u64(snap.counters[i].value);
  }
  os << (snap.counters.empty() ? "},\n" : "\n  },\n");

  os << "  \"gauges\": {";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    \""
       << json_escape(snap.gauges[i].name)
       << "\": " << fmt_json_double(snap.gauges[i].value);
  }
  os << (snap.gauges.empty() ? "}\n" : "\n  }\n");
  os << "}\n";
}

}  // namespace aegis::telemetry
