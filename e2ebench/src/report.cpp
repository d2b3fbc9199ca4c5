#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace e2ebench {

namespace {

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Every digit a double carries: the driver compares raw measurements.
std::string json_number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

void print_metrics(std::ostream& out, const char* title,
                   const std::vector<Metric>& metrics) {
  if (metrics.empty()) return;
  out << title << "\n";
  for (const Metric& m : metrics) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %-26s %14.6g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    out << buf;
  }
}

}  // namespace

void Result::provenance(std::string key, std::string value) {
  provenance_.emplace_back(std::move(key), std::move(value));
}

void Result::metric(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Result::layer(std::string name, double value, std::string unit) {
  layers_.push_back({std::move(name), value, std::move(unit)});
}

bool Result::check(std::string name, bool ok, std::string detail) {
  checks_.push_back({std::move(name), ok, std::move(detail)});
  return ok;
}

void Result::operations(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ = attempted;
  failed_ = failed;
}

bool Result::correct() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const Check& c) { return c.ok; });
}

void Result::print(std::ostream& out) const {
  out << "provenance:";
  for (const auto& [key, value] : provenance_) out << " " << key << "=" << value;
  out << "\n";
  print_metrics(out, "end-to-end metrics:", metrics_);
  print_metrics(out, "per-layer metrics:", layers_);
  out << "checks:\n";
  for (const Check& c : checks_) {
    out << "  " << (c.ok ? "ok   " : "FAIL ") << c.name;
    if (!c.detail.empty()) out << ": " << c.detail;
    out << "\n";
  }
  out << "operations: attempted " << attempted_ << ", failed " << failed_
      << "\n";

  std::string json = "{\"provenance\": {";
  for (std::size_t i = 0; i < provenance_.size(); ++i) {
    if (i > 0) json += ", ";
    json += json_string(provenance_[i].first) + ": " +
            json_string(provenance_[i].second);
  }
  json += "}, \"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_) +
          ", \"failed\": " + std::to_string(failed_) +
          ", \"metrics\": " + json_metrics(metrics_) +
          ", \"layers\": " + json_metrics(layers_) + ", \"checks\": [";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    if (i > 0) json += ", ";
    json += "{\"name\": " + json_string(checks_[i].name) +
            ", \"ok\": " + (checks_[i].ok ? "true" : "false") +
            ", \"detail\": " + json_string(checks_[i].detail) + "}";
  }
  out << "E2EBENCH_RESULT " << json << "]}\n";
}

std::string join(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.4g", out.empty() ? "" : ",", v);
    out += buf;
  }
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace e2ebench
