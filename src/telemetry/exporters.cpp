#include "telemetry/exporters.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <set>
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

/// JSON has no infinity or NaN (a forecaster ETA gauge is +inf until the
/// burn slope turns positive); the snapshot writes them as null.
std::string fmt_json_double(double v) {
  return std::isfinite(v) ? fmt_double(v) : std::string("null");
}

std::string fmt_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return std::string(buf);
}

/// Metric base name: the part before any {label} suffix.
std::string_view base_name(std::string_view name) {
  const auto brace = name.find('{');
  return brace == std::string_view::npos ? name : name.substr(0, brace);
}

/// Prometheus text-format escaping. HELP text escapes backslash and line
/// feed; label values additionally escape the double quote (the spec's
/// three escapes — anything else passes through as UTF-8).
std::string prom_escape(std::string_view s, bool quote_too) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '"' && quote_too) {
      out += "\\\"";
    } else {
      out += c;
    }
  }
  return out;
}

std::string escape_help(std::string_view s) {
  return prom_escape(s, /*quote_too=*/false);
}

/// Re-escapes the label VALUES of an already-composed `base{k="v",...}`
/// metric name. Values were inserted raw by registration sites, so a value
/// containing `"` / `\` / newline would otherwise corrupt the exposition.
/// A value is taken to end at a quote followed by `,` or the closing `}` —
/// the only ambiguity raw composition leaves.
std::string escape_labels(std::string_view name) {
  const auto brace = name.find('{');
  if (brace == std::string_view::npos || name.back() != '}') {
    return std::string(name);
  }
  std::string out(name.substr(0, brace + 1));
  const std::string_view body = name.substr(brace + 1, name.size() - brace - 2);
  std::size_t i = 0;
  while (i < body.size()) {
    const auto eq = body.find("=\"", i);
    if (eq == std::string_view::npos) {
      out.append(body.substr(i));
      break;
    }
    out.append(body.substr(i, eq - i + 2));  // key and ="
    i = eq + 2;
    std::size_t j = i;
    while (j < body.size() &&
           !(body[j] == '"' && (j + 1 == body.size() || body[j + 1] == ','))) {
      ++j;
    }
    out += prom_escape(body.substr(i, j - i), /*quote_too=*/true);
    out += '"';
    i = j < body.size() ? j + 1 : j;
  }
  out += '}';
  return out;
}

void help_line_once(std::string_view base, const MetricsSnapshot& snap,
                    std::set<std::string>& seen, std::ostream& os) {
  if (!seen.insert(std::string(base)).second) return;
  for (const auto& h : snap.help) {
    if (h.name == base) {
      os << "# HELP " << base << ' ' << escape_help(h.help) << '\n';
      return;
    }
  }
}

void type_line_once(std::string_view name, std::string_view type,
                    const MetricsSnapshot& snap, std::set<std::string>& seen,
                    std::set<std::string>& helped, std::ostream& os) {
  const std::string base(base_name(name));
  help_line_once(base, snap, helped, os);
  if (seen.insert(base).second) {
    os << "# TYPE " << base << ' ' << type << '\n';
  }
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

void write_prometheus(const MetricsSnapshot& snap, std::ostream& os) {
  std::set<std::string> typed;
  std::set<std::string> helped;
  for (const auto& c : snap.counters) {
    type_line_once(c.name, "counter", snap, typed, helped, os);
    os << escape_labels(c.name) << ' ' << fmt_u64(c.value) << '\n';
  }
  for (const auto& g : snap.gauges) {
    type_line_once(g.name, "gauge", snap, typed, helped, os);
    os << escape_labels(g.name) << ' ' << fmt_double(g.value) << '\n';
  }
  for (const auto& h : snap.histograms) {
    type_line_once(h.name, "histogram", snap, typed, helped, os);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += h.buckets[i];
      os << base_name(h.name) << "_bucket{le=\"" << fmt_double(h.bounds[i])
         << "\"} " << fmt_u64(cumulative) << '\n';
    }
    os << base_name(h.name) << "_bucket{le=\"+Inf\"} " << fmt_u64(h.count)
       << '\n';
    os << base_name(h.name) << "_sum " << fmt_double(h.sum) << '\n';
    os << base_name(h.name) << "_count " << fmt_u64(h.count) << '\n';
  }
}

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
  os << (snap.gauges.empty() ? "},\n" : "\n  },\n");

  os << "  \"histograms\": {";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& h = snap.histograms[i];
    os << (i == 0 ? "\n" : ",\n") << "    \"" << json_escape(h.name)
       << "\": {\"bounds\": [";
    for (std::size_t j = 0; j < h.bounds.size(); ++j) {
      os << (j == 0 ? "" : ", ") << fmt_json_double(h.bounds[j]);
    }
    os << "], \"buckets\": [";
    for (std::size_t j = 0; j < h.buckets.size(); ++j) {
      os << (j == 0 ? "" : ", ") << fmt_u64(h.buckets[j]);
    }
    os << "], \"count\": " << fmt_u64(h.count)
       << ", \"sum\": " << fmt_json_double(h.sum) << '}';
  }
  os << (snap.histograms.empty() ? "}\n" : "\n  }\n");
  os << "}\n";
}

}  // namespace aegis::telemetry
