#include "core/serialize.hpp"

#include <unistd.h>

#include <atomic>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "pmu/backend/backend.hpp"

namespace aegis::core {

namespace {

// Header line: "aegis-offline-result v<N>". The version is parsed, not
// string-compared, and only kFormatVersion loads: a stream of any other
// version is rejected up front with one actionable error instead of a
// confusing parse failure deeper in the file. A saved analysis is a cache
// that can always be regenerated, so there are no readers for old formats.
// Bump kFormatVersion whenever the section layout changes incompatibly.
// v2 carries a "backend <id>" line after the cpu line so a result templated
// on one PMU backend cannot be silently replayed on another.
constexpr const char* kMagicPrefix = "aegis-offline-result v";
constexpr unsigned kFormatVersion = 2;

std::string event_name(const pmu::EventDatabase& db, std::uint32_t id) {
  return db.by_id(id).name;
}

std::uint32_t event_id_or_throw(const pmu::EventDatabase& db,
                                const std::string& name) {
  const auto id = db.find(name);
  if (!id) {
    throw std::runtime_error("load_offline_result: unknown event '" + name + "'");
  }
  return *id;
}

/// Reads one non-empty line; throws at EOF.
std::string read_line(std::istream& is, const char* context) {
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty()) return line;
  }
  throw std::runtime_error(std::string("load_offline_result: truncated input at ") +
                           context);
}

[[noreturn]] void malformed(const char* context, const std::string& text) {
  throw std::runtime_error(std::string("load_offline_result: malformed ") +
                           context + " '" + text + "'");
}

/// Splits a row on tabs into exactly `n` fields (the writer's format);
/// any other field count is malformed. With `n` fields the last one takes
/// the rest of the line, so event names may contain anything but a tab.
std::vector<std::string> split_row(const std::string& line, std::size_t n,
                                   const char* context) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (fields.size() + 1 < n) {
    const std::size_t tab = line.find('\t', start);
    if (tab == std::string::npos) malformed(context, line);
    fields.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
  fields.push_back(line.substr(start));
  if (fields.back().find('\t') != std::string::npos) {
    malformed(context, line);
  }
  return fields;
}

/// Parses a whole field as a number with std::from_chars: no whitespace,
/// no '+', no trailing junk, no '-' for unsigned types, no values out of
/// the type's range, and no NaN or infinity (from_chars accepts "nan" and
/// "inf", which would poison the ranking's sort and segment sizing).
template <typename T>
T parse_number(const std::string& field, const char* context) {
  T value{};
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, value);
  if (field.empty() || ec != std::errc{} || ptr != end) {
    malformed(context, field);
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) malformed(context, field);
  }
  return value;
}

/// Parses a gadget uid and checks it against the spec. An unknown uid would
/// surface only at the first session, and a faulting variant's uid would
/// be injected, so both are rejected at load.
std::uint32_t parse_uid(const std::string& field,
                        const isa::IsaSpecification& spec,
                        const char* context) {
  const auto uid = parse_number<std::uint32_t>(field, context);
  const auto& variants = spec.variants();
  if (uid >= variants.size() || variants[uid].uid != uid ||
      !variants[uid].legal()) {
    throw std::runtime_error(std::string("load_offline_result: ") + context +
                             " " + field + " is not a legal variant of " +
                             std::string(isa::to_string(spec.model())));
  }
  return uid;
}

std::size_t parse_count(std::istream& is, const char* context) {
  return parse_number<std::size_t>(read_line(is, context), context);
}

void expect_section(std::istream& is, const std::string& name) {
  const std::string line = read_line(is, name.c_str());
  if (line != "[" + name + "]") {
    throw std::runtime_error("load_offline_result: expected section [" + name +
                             "], got '" + line + "'");
  }
}

}  // namespace

void save_offline_result(std::ostream& os, const OfflineResult& result,
                         const pmu::EventDatabase& db) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << kMagicPrefix << kFormatVersion << "\n";
  os << "cpu " << isa::to_string(db.model()) << "\n";
  os << "backend " << pmu::backend::backend_id(db.model()) << "\n";

  os << "[warmup]\n" << result.warmup.surviving.size() << "\n";
  for (std::uint32_t id : result.warmup.surviving) {
    os << event_name(db, id) << "\n";
  }

  os << "[ranking]\n" << result.ranking.size() << "\n";
  for (const auto& rank : result.ranking) {
    os << rank.mutual_information << "\t" << event_name(db, rank.event_id) << "\n";
  }

  // Per-event confirmed gadgets (uids are stable: the ISA spec is
  // deterministic per CPU family).
  os << "[gadgets]\n" << result.fuzz.reports.size() << "\n";
  for (const auto& report : result.fuzz.reports) {
    os << event_name(db, report.event_id) << "\t" << report.confirmed.size()
       << "\t" << report.best.gadget.reset_uid << "\t"
       << report.best.gadget.trigger_uid << "\t" << report.best.median_delta
       << "\n";
    for (const auto& g : report.confirmed) {
      os << g.gadget.reset_uid << "\t" << g.gadget.trigger_uid << "\t"
         << g.median_delta << "\n";
    }
  }

  os << "[cover]\n" << result.cover.gadgets.size() << "\n";
  for (const auto& g : result.cover.gadgets) {
    os << g.reset_uid << "\t" << g.trigger_uid << "\n";
  }
  os << result.cover.segment_effect.size() << "\n";
  for (const auto& [event, delta] : result.cover.segment_effect) {
    os << delta << "\t" << event_name(db, event) << "\n";
  }
  os << result.cover.uncovered_events.size() << "\n";
  for (std::uint32_t id : result.cover.uncovered_events) {
    os << event_name(db, id) << "\n";
  }
}

OfflineResult load_offline_result(std::istream& is,
                                  const pmu::EventDatabase& db,
                                  const isa::IsaSpecification& spec) {
  OfflineResult result;
  unsigned version = 0;
  {
    const std::string magic = read_line(is, "magic");
    const std::string prefix(kMagicPrefix);
    if (magic.rfind(prefix, 0) != 0) {
      throw std::runtime_error("load_offline_result: bad magic line");
    }
    try {
      std::size_t consumed = 0;
      const std::string suffix = magic.substr(prefix.size());
      version = static_cast<unsigned>(std::stoul(suffix, &consumed));
      if (consumed != suffix.size()) {
        throw std::invalid_argument("trailing junk");
      }
    } catch (const std::exception&) {
      throw std::runtime_error("load_offline_result: bad format version in '" +
                               magic + "'");
    }
    if (version != kFormatVersion) {
      throw std::runtime_error(
          "load_offline_result: stream format v" + std::to_string(version) +
          " is not v" + std::to_string(kFormatVersion) +
          ", the only format this build reads; re-run the offline analysis "
          "for an older stream, or use a newer aegis for a newer one");
    }
  }
  {
    const std::string cpu_line = read_line(is, "cpu");
    const std::string expected = "cpu " + std::string(isa::to_string(db.model()));
    // Family members share event lists; accept any same-family model.
    bool ok = cpu_line == expected;
    if (!ok) {
      for (isa::CpuModel m :
           {isa::CpuModel::kIntelXeonE5_1650, isa::CpuModel::kIntelXeonE5_4617,
            isa::CpuModel::kAmdEpyc7252, isa::CpuModel::kAmdEpyc7313P}) {
        if (cpu_line == "cpu " + std::string(isa::to_string(m)) &&
            isa::family_of(m) == isa::family_of(db.model())) {
          ok = true;
        }
      }
    }
    if (!ok) {
      throw std::runtime_error("load_offline_result: CPU family mismatch: " +
                               cpu_line);
    }
  }
  {
    // Belt-and-braces next to the family check: the backend id names the
    // vendor family a template was analyzed on, and a template only ever
    // loads back into the same family's backend.
    const std::string backend_line = read_line(is, "backend");
    const std::string expected =
        "backend " + std::string(pmu::backend::backend_id(db.model()));
    if (backend_line != expected) {
      throw std::runtime_error("load_offline_result: PMU backend mismatch: '" +
                               backend_line + "' (expected '" + expected +
                               "')");
    }
  }

  expect_section(is, "warmup");
  {
    const std::size_t n = parse_count(is, "warmup count");
    result.warmup.total_events = db.size();
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t id =
          event_id_or_throw(db, read_line(is, "warmup event"));
      result.warmup.surviving.push_back(id);
      ++result.warmup.after_by_type[static_cast<std::size_t>(db.by_id(id).type)];
    }
    result.warmup.before_by_type = db.count_by_type();
  }

  expect_section(is, "ranking");
  {
    const std::size_t n = parse_count(is, "ranking count");
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<std::string> fields =
          split_row(read_line(is, "ranking row"), 2, "ranking row");
      profiler::EventRank rank;
      rank.mutual_information = parse_number<double>(fields[0], "ranking MI");
      rank.event_id = event_id_or_throw(db, fields[1]);
      result.ranking.push_back(rank);
    }
  }

  expect_section(is, "gadgets");
  {
    const std::size_t n = parse_count(is, "gadget report count");
    for (std::size_t i = 0; i < n; ++i) {
      // Fields: event name, gadget count, best reset/trigger uid, best delta.
      const std::vector<std::string> fields = split_row(
          read_line(is, "gadget report header"), 5, "gadget report header");
      fuzzer::EventFuzzReport report;
      report.event_id = event_id_or_throw(db, fields[0]);
      const auto gadget_count =
          parse_number<std::size_t>(fields[1], "gadget count");
      report.best.gadget.reset_uid = parse_uid(fields[2], spec, "gadget uid");
      report.best.gadget.trigger_uid = parse_uid(fields[3], spec, "gadget uid");
      report.best.median_delta = parse_number<double>(fields[4], "gadget delta");
      for (std::size_t g = 0; g < gadget_count; ++g) {
        const std::vector<std::string> row =
            split_row(read_line(is, "gadget row"), 3, "gadget row");
        fuzzer::ConfirmedGadget confirmed;
        confirmed.gadget.reset_uid = parse_uid(row[0], spec, "gadget uid");
        confirmed.gadget.trigger_uid = parse_uid(row[1], spec, "gadget uid");
        confirmed.median_delta = parse_number<double>(row[2], "gadget delta");
        report.confirmed.push_back(confirmed);
      }
      report.candidates = report.confirmed.size();
      result.fuzz.reports.push_back(std::move(report));
    }
  }

  expect_section(is, "cover");
  {
    const std::size_t gadgets = parse_count(is, "cover gadget count");
    for (std::size_t i = 0; i < gadgets; ++i) {
      const std::vector<std::string> row =
          split_row(read_line(is, "cover gadget"), 2, "cover gadget");
      fuzzer::Gadget g;
      g.reset_uid = parse_uid(row[0], spec, "cover gadget uid");
      g.trigger_uid = parse_uid(row[1], spec, "cover gadget uid");
      result.cover.gadgets.push_back(g);
    }
    const std::size_t effects = parse_count(is, "cover effect count");
    for (std::size_t i = 0; i < effects; ++i) {
      const std::vector<std::string> row =
          split_row(read_line(is, "cover effect"), 2, "cover effect");
      const double delta = parse_number<double>(row[0], "cover effect delta");
      const std::uint32_t id = event_id_or_throw(db, row[1]);
      result.cover.segment_effect.emplace_back(id, delta);
      result.cover.covered_events.push_back(id);
    }
    const std::size_t uncovered = parse_count(is, "uncovered count");
    for (std::size_t i = 0; i < uncovered; ++i) {
      result.cover.uncovered_events.push_back(
          event_id_or_throw(db, read_line(is, "uncovered event")));
    }
  }
  return result;
}

// Writes a sibling temp file and renames it over `path`. A rename within
// one directory is atomic on POSIX, so a reader — or another process
// saving into the same template cache directory — sees the previous file
// or the complete new one, never a torn prefix. A failed write removes the
// temp file and leaves `path` as it was.
void save_offline_result(const std::string& path, const OfflineResult& result,
                         const pmu::EventDatabase& db) {
  static std::atomic<std::uint64_t> sequence{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(sequence.fetch_add(1));
  try {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) {
      throw std::runtime_error("save_offline_result: cannot open " + path);
    }
    save_offline_result(os, result, db);
    os.close();
    if (!os) {
      throw std::runtime_error("save_offline_result: write failed for " + path);
    }
    std::filesystem::rename(tmp, path);
  } catch (...) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw;
  }
}

OfflineResult load_offline_result(const std::string& path,
                                  const pmu::EventDatabase& db,
                                  const isa::IsaSpecification& spec) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("load_offline_result: cannot open " + path);
  return load_offline_result(is, db, spec);
}

}  // namespace aegis::core
