// aegis_top: text dashboard over flight-recorder dumps.
//
// Reads the binary dumps of telemetry/flight_recorder.hpp (written by
// FlightRecorder::write_dump, or on a crash when AEGIS_FR_DUMP is set;
// tests/service_test.cpp renders a real service run) and renders the
// stream table, the alerts, the recent admission decisions and the newest
// events:
//
//   aegis_top --recorder DUMP.frd            stream table, alerts, recent
//                                            admission decisions, last 20
//   aegis_top --recorder DUMP.frd --tail N   show the last N events
//   aegis_top --recorder DUMP.frd --trace OUT.json   chrome://tracing export
//
// Exits non-zero on a missing or malformed dump. Lives in tools/ (not
// linted, not part of the library): presentation only, no simulation state.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "telemetry/flight_recorder.hpp"

namespace {

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
  std::string recorder_path;
  std::string trace_out;
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
    } else {
      std::cerr << "aegis_top: unexpected argument " << argv[i] << "\n";
      return 2;
    }
  }
  if (recorder_path.empty()) {
    std::cerr << "usage: aegis_top --recorder DUMP.frd [--tail N] "
                 "[--trace OUT.json]\n";
    return 2;
  }
  return render_recorder(recorder_path, tail, trace_out);
}
