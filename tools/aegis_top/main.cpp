// aegis_top: text dashboard over a telemetry JSON snapshot.
//
// Reads the file written by telemetry::write_json_snapshot (by any process
// embedding the registry; tests/service_test.cpp renders a real service run)
// and renders the service at a glance: session counters, queue depth, template
// cache effectiveness, and a per-tenant privacy-budget table built from the
// governor's per-tenant metrics (the admit/degrade/refuse counters and the
// two ε gauges).
//
//   aegis_top SNAPSHOT.json             render once
//   aegis_top SNAPSHOT.json --watch N   re-read and re-render every N seconds
//
// It also reads flight-recorder binary dumps (telemetry/flight_recorder.hpp;
// written by FlightRecorder::write_dump or on a crash):
//
//   aegis_top --recorder DUMP.frd            stream table, alerts, recent
//                                            admission decisions, last 20
//   aegis_top --recorder DUMP.frd --tail N   show the last N events
//   aegis_top --recorder DUMP.frd --trace OUT.json   chrome://tracing export
//
// Exits non-zero on a missing or malformed snapshot. Lives in tools/ (not
// linted, not part of the library): presentation only, no simulation state.
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/json_reader.hpp"

namespace {

using aegis::telemetry::JsonValue;

struct TenantRow {
  std::uint64_t admitted = 0;
  std::uint64_t degraded = 0;
  std::uint64_t refused = 0;
  double epsilon_spent = 0.0;
  double epsilon_remaining = 0.0;
};

std::uint64_t counter(const JsonValue& snap, const char* name) {
  return snap.at("counters").at(name).as_u64();
}

double gauge(const JsonValue& snap, const char* name) {
  return snap.at("gauges").at(name).number;
}

/// The N of a `base{tenant="N"}` metric name; nullopt for any other name.
std::optional<std::uint64_t> tenant_of(std::string_view name,
                                       std::string_view base) {
  constexpr std::string_view kLabel = "{tenant=\"";
  if (!name.starts_with(base)) return std::nullopt;
  name.remove_prefix(base.size());
  if (!name.starts_with(kLabel)) return std::nullopt;
  name.remove_prefix(kLabel.size());
  if (!name.ends_with("\"}")) return std::nullopt;
  name.remove_suffix(2);
  std::uint64_t id = 0;
  const char* end = name.data() + name.size();
  const auto [ptr, ec] = std::from_chars(name.data(), end, id);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return id;
}

/// One row per tenant from the governor's per-tenant metrics.
std::map<std::uint64_t, TenantRow> tenant_rows(const JsonValue& snap) {
  std::map<std::uint64_t, TenantRow> rows;
  const auto fold = [&](const char* section, std::string_view base,
                        auto&& apply) {
    for (const auto& [name, value] : snap.at(section).object) {
      if (const auto id = tenant_of(name, base)) apply(rows[*id], value);
    }
  };
  fold("counters", "aegis_tenant_admitted_total",
       [](TenantRow& r, const JsonValue& v) { r.admitted = v.as_u64(); });
  fold("counters", "aegis_tenant_degraded_total",
       [](TenantRow& r, const JsonValue& v) { r.degraded = v.as_u64(); });
  fold("counters", "aegis_tenant_refused_total",
       [](TenantRow& r, const JsonValue& v) { r.refused = v.as_u64(); });
  fold("gauges", "aegis_tenant_epsilon_advanced",
       [](TenantRow& r, const JsonValue& v) { r.epsilon_spent = v.number; });
  fold("gauges", "aegis_tenant_epsilon_remaining",
       [](TenantRow& r, const JsonValue& v) {
         r.epsilon_remaining = v.number;
       });
  return rows;
}

void render(const JsonValue& snap, std::ostream& os) {
  const std::uint64_t submitted = counter(snap, "aegis_sessions_submitted_total");
  const std::uint64_t started = counter(snap, "aegis_sessions_started_total");
  const std::uint64_t completed = counter(snap, "aegis_sessions_completed_total");
  const std::uint64_t refused = counter(snap, "aegis_sessions_refused_total");
  const std::uint64_t degraded = counter(snap, "aegis_sessions_degraded_total");
  const double active = gauge(snap, "aegis_sessions_active");
  const double queue_depth = gauge(snap, "aegis_service_queue_depth");

  const std::uint64_t lookups = counter(snap, "aegis_cache_lookups_total");
  const std::uint64_t hits = counter(snap, "aegis_cache_hits_total");
  const std::uint64_t misses = counter(snap, "aegis_cache_misses_total");
  const std::uint64_t warm = counter(snap, "aegis_cache_warm_starts_total");
  const std::uint64_t failed = counter(snap, "aegis_cache_failed_loads_total");
  const std::uint64_t analyses = counter(snap, "aegis_cache_analyses_total");
  const double hit_rate =
      lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups);

  char line[256];
  os << "aegis_top — protection service\n";
  os << "==============================\n";
  std::snprintf(line, sizeof(line),
                "sessions   submitted %" PRIu64 "  started %" PRIu64
                "  completed %" PRIu64 "  active %.0f\n",
                submitted, started, completed, active);
  os << line;
  std::snprintf(line, sizeof(line),
                "admission  degraded %" PRIu64 "  refused %" PRIu64
                "  queue depth %.0f\n",
                degraded, refused, queue_depth);
  os << line;
  std::snprintf(line, sizeof(line),
                "cache      hit rate %.3f (%" PRIu64 "/%" PRIu64
                ")  misses %" PRIu64 "  warm %" PRIu64 "  failed loads %" PRIu64
                "  analyses %" PRIu64 "\n",
                hit_rate, hits, lookups, misses, warm, failed, analyses);
  os << line;

  const auto rows = tenant_rows(snap);
  if (rows.empty()) {
    os << "\n(no per-tenant budget metrics)\n";
    return;
  }
  os << "\ntenant   admit  degrade  refuse   eps spent    eps remaining\n";
  os << "------   -----  -------  ------   ---------    -------------\n";
  for (const auto& [id, row] : rows) {
    std::snprintf(line, sizeof(line),
                  "%6" PRIu64 "   %5" PRIu64 "  %7" PRIu64 "  %6" PRIu64
                  "   %9.4f    %13.4f\n",
                  id, row.admitted, row.degraded, row.refused,
                  row.epsilon_spent, row.epsilon_remaining);
    os << line;
  }
}

int render_file(const std::string& path, bool clear_screen) {
  std::ifstream is(path);
  if (!is) {
    std::cerr << "aegis_top: cannot open " << path << "\n";
    return 1;
  }
  std::ostringstream text;
  text << is.rdbuf();
  JsonValue snap;
  try {
    snap = aegis::telemetry::parse_json(text.str());
  } catch (const std::exception& e) {
    std::cerr << "aegis_top: bad snapshot " << path << ": " << e.what() << "\n";
    return 1;
  }
  if (!snap.is_object()) {
    std::cerr << "aegis_top: snapshot root is not an object\n";
    return 1;
  }
  if (clear_screen) std::cout << "\033[2J\033[H";
  render(snap, std::cout);
  std::cout.flush();
  return 0;
}

const char* stream_name(const aegis::telemetry::DumpDocument& doc,
                        std::uint16_t stream) {
  if (stream < doc.streams.size()) return doc.streams[stream].c_str();
  return "?";
}

/// Outcome code of a kAdmission event (BudgetGovernor).
const char* outcome_name(std::uint64_t code) {
  switch (code) {
    case 0: return "admit";
    case 1: return "degrade";
    case 2: return "refuse";
  }
  return "?";
}

int render_recorder(const std::string& path, std::size_t tail,
                    const std::string& trace_out) {
  const auto doc = aegis::telemetry::read_dump_file(path.c_str());
  if (!doc) {
    std::cerr << "aegis_top: not a flight-recorder dump: " << path << "\n";
    return 1;
  }
  if (!trace_out.empty()) {
    std::ofstream os(trace_out);
    if (!os) {
      std::cerr << "aegis_top: cannot write " << trace_out << "\n";
      return 1;
    }
    aegis::telemetry::write_recorder_trace_json(*doc, os);
    std::cout << "aegis_top: wrote chrome://tracing file " << trace_out << " ("
              << doc->events.size() << " events)\n";
    return 0;
  }

  char line[256];
  std::cout << "aegis_top — flight recorder dump\n";
  std::cout << "================================\n";
  std::snprintf(line, sizeof(line),
                "format v%u   events %zu   dropped/overwritten %" PRIu64
                "   streams %zu\n",
                doc->version, doc->events.size(), doc->dropped,
                doc->streams.size());
  std::cout << line;

  // Per-stream event tallies (registration order == id order).
  std::vector<std::uint64_t> per_stream(doc->streams.size(), 0);
  std::size_t alerts = 0;
  for (const auto& e : doc->events) {
    if (e.stream < per_stream.size()) ++per_stream[e.stream];
    if (e.type ==
        static_cast<std::uint16_t>(aegis::telemetry::WideEventType::kAlert)) {
      ++alerts;
    }
  }
  std::cout << "\nstream                     events\n";
  std::cout << "------                     ------\n";
  for (std::size_t s = 0; s < doc->streams.size(); ++s) {
    std::snprintf(line, sizeof(line), "%-24s  %7" PRIu64 "\n",
                  doc->streams[s].c_str(), per_stream[s]);
    std::cout << line;
  }

  if (alerts > 0) {
    std::cout << "\nALERTS (" << alerts << ")\n";
    for (const auto& e : doc->events) {
      if (e.type !=
          static_cast<std::uint16_t>(aegis::telemetry::WideEventType::kAlert)) {
        continue;
      }
      std::snprintf(line, sizeof(line),
                    "  t=%-12" PRIu64 " %-16s tenant=%u kind=%" PRIu64 "\n",
                    e.t_ns, stream_name(*doc, e.stream), e.tenant, e.a);
      std::cout << line;
    }
  }

  // Recent admission decisions, newest last (the governor's kAdmission
  // events: a=outcome code, b=granularity, c=releases, d=ε bits).
  std::vector<const aegis::telemetry::DrainedEvent*> decisions;
  for (const auto& e : doc->events) {
    if (e.type == static_cast<std::uint16_t>(
                      aegis::telemetry::WideEventType::kAdmission)) {
      decisions.push_back(&e);
    }
  }
  if (!decisions.empty()) {
    const std::size_t shown = std::min(tail, decisions.size());
    std::cout << "\nrecent decisions (" << shown << " of " << decisions.size()
              << ")\n";
    std::cout << "t             tenant  outcome  granularity  releases"
                 "  eps after\n";
    for (std::size_t i = decisions.size() - shown; i < decisions.size(); ++i) {
      const auto& e = *decisions[i];
      double epsilon = 0.0;
      std::memcpy(&epsilon, &e.d, sizeof(epsilon));
      std::snprintf(line, sizeof(line),
                    "%-12" PRIu64 "  %6u  %-7s  %11" PRIu64 "  %8" PRIu64
                    "  %9.4f\n",
                    e.t_ns, e.tenant, outcome_name(e.a), e.b, e.c, epsilon);
      std::cout << line;
    }
  }

  const std::size_t n = std::min(tail, doc->events.size());
  std::cout << "\nlast " << n << " events (of " << doc->events.size() << ")\n";
  std::cout << "t             stream            type           tenant"
               "  a                b\n";
  for (std::size_t i = doc->events.size() - n; i < doc->events.size(); ++i) {
    const auto& e = doc->events[i];
    std::snprintf(
        line, sizeof(line),
        "%-12" PRIu64 "  %-16s  %-13s  %6u  %-15" PRIu64 "  %-15" PRIu64 "\n",
        e.t_ns, stream_name(*doc, e.stream),
        aegis::telemetry::to_string(
            static_cast<aegis::telemetry::WideEventType>(e.type)),
        e.tenant, e.a, e.b);
    std::cout << line;
  }
  std::cout.flush();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string recorder_path;
  std::string trace_out;
  long watch_seconds = 0;
  std::size_t tail = 20;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--recorder") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "aegis_top: --recorder needs a dump-file argument\n";
        return 2;
      }
      recorder_path = argv[++i];
    } else if (std::strcmp(argv[i], "--tail") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "aegis_top: --tail needs a count argument\n";
        return 2;
      }
      tail = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "aegis_top: --trace needs an output-file argument\n";
        return 2;
      }
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--watch") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "aegis_top: --watch needs a seconds argument\n";
        return 2;
      }
      watch_seconds = std::atol(argv[++i]);
      if (watch_seconds <= 0) {
        std::cerr << "aegis_top: --watch interval must be positive\n";
        return 2;
      }
    } else if (path.empty()) {
      path = argv[i];
    } else {
      std::cerr << "aegis_top: unexpected argument " << argv[i] << "\n";
      return 2;
    }
  }
  if (!recorder_path.empty()) {
    if (!path.empty()) {
      std::cerr << "aegis_top: --recorder takes no snapshot argument\n";
      return 2;
    }
    return render_recorder(recorder_path, tail, trace_out);
  }
  if (path.empty()) {
    std::cerr << "usage: aegis_top SNAPSHOT.json [--watch SECONDS]\n"
                 "       aegis_top --recorder DUMP.frd [--tail N] "
                 "[--trace OUT.json]\n";
    return 2;
  }
  if (watch_seconds == 0) return render_file(path, /*clear_screen=*/false);
  for (;;) {
    const int rc = render_file(path, /*clear_screen=*/true);
    if (rc != 0) return rc;
    std::this_thread::sleep_for(std::chrono::seconds(watch_seconds));
  }
}
