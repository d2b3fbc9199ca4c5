// Telemetry subsystem tests: counter and gauge handles, sorted snapshots,
// byte-stable exporter golden files under a fixed clock, span parentage read
// back from the flight recorder, the JSON reader (including seeded mutations
// of a snapshot: any bytes parse or are rejected, with bounded nesting and
// allocations, measured by an instrumented global allocator), and a
// threaded registry stress intended for the TSan config of the CI matrix.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "counting_allocator.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/json_reader.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span_tracer.hpp"
#include "util/rng.hpp"

namespace aegis::telemetry {
namespace {

// ---------------------------------------------------------------------------
// Metrics

TEST(Metrics, CounterHandleAccumulatesAcrossCopies) {
  MetricsRegistry reg;
  Counter a = reg.counter("c_total");
  Counter b = reg.counter("c_total");  // idempotent: same cell
  a.inc();
  b.inc(4);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(b.value(), 5u);
}

TEST(Metrics, NullHandlesAreSafeNoOps) {
  Counter c;
  Gauge g;
  c.inc();
  g.set(3.0);
  g.add(1.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
}

TEST(Metrics, GaugeSetAndAdd) {
  MetricsRegistry reg;
  Gauge g = reg.gauge("g");
  g.set(2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(Metrics, SnapshotIsSortedByName) {
  MetricsRegistry reg;
  reg.counter("zz");
  reg.counter("aa");
  reg.counter("mm");
  reg.gauge("g_z");
  reg.gauge("g_a");
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "aa");
  EXPECT_EQ(snap.counters[1].name, "mm");
  EXPECT_EQ(snap.counters[2].name, "zz");
  ASSERT_EQ(snap.gauges.size(), 2u);
  EXPECT_EQ(snap.gauges[0].name, "g_a");
  EXPECT_EQ(snap.gauges[1].name, "g_z");
}

// TSan target: many threads hammering one counter and one gauge while a
// reader snapshots concurrently. Correctness check: the final counter total
// equals the number of increments (shards never lose writes).
TEST(Metrics, ThreadedRegistryStress) {
  MetricsRegistry reg;
  Counter c = reg.counter("stress_total");
  Gauge g = reg.gauge("stress_gauge");

  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        c.inc();
        g.add(1.0);
        if (i % 4096 == 0) (void)reg.snapshot();  // concurrent reader
      }
    });
  }
  for (auto& t : workers) t.join();

  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads) * kIters);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].value,
            static_cast<std::uint64_t>(kThreads) * kIters);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value,
                   static_cast<double>(kThreads) * kIters);
}

// ---------------------------------------------------------------------------
// Spans — recorded only as flight-recorder events, read back by pairing

/// A registry whose clock reads `now`, which the test sets.
struct ManualClockRegistry {
  std::uint64_t now = 0;
  Registry reg{[this] { return now; }};
};

std::vector<CompletedSpan> spans_of(const Registry& reg) {
  return completed_spans(reg.recorder().drain());
}

std::string span_name(const Registry& reg, const CompletedSpan& span) {
  return reg.recorder().streams().at(span.stream);
}

TEST(Spans, ScopedSpanInfersParentOnOneThread) {
  ManualClockRegistry m;
  {
    ScopedSpan outer(m.reg.spans(), "outer");
    m.now += 100;
    {
      ScopedSpan inner(m.reg.spans(), "inner");
      m.now += 50;
    }
    m.now += 25;
  }
  const std::vector<CompletedSpan> spans = spans_of(m.reg);
  ASSERT_EQ(spans.size(), 2u);
  // Begin-event order: outer begins at 0, inner at 100.
  EXPECT_EQ(span_name(m.reg, spans[0]), "outer");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(span_name(m.reg, spans[1]), "inner");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].begin_ns, 100u);
  EXPECT_EQ(spans[1].end_ns, 150u);
  EXPECT_EQ(spans[0].end_ns, 175u);
}

TEST(Spans, ParentComesOnlyFromTheSameRegistry) {
  // A span on registry B nested in a span on registry A (as
  // engine.analyze's global-registry profiler spans nest in the service's
  // service.register_template) must not adopt A's span as its parent.
  ManualClockRegistry a;
  ManualClockRegistry b;
  {
    ScopedSpan outer_a(a.reg.spans(), "outer");
    ScopedSpan inner_b(b.reg.spans(), "inner");
    ScopedSpan innermost_a(a.reg.spans(), "innermost");
  }
  const std::vector<CompletedSpan> in_b = spans_of(b.reg);
  ASSERT_EQ(in_b.size(), 1u);
  EXPECT_EQ(in_b[0].parent, 0u);
  const std::vector<CompletedSpan> in_a = spans_of(a.reg);
  ASSERT_EQ(in_a.size(), 2u);
  EXPECT_EQ(in_a[1].parent, in_a[0].id)
      << "a span skips the other registry's span to find its own parent";
}

TEST(Spans, RecordCompleteBypassesTheClock) {
  ManualClockRegistry m;
  m.now = 999999;
  const SpanStream stream = m.reg.spans().stream("virtual");
  m.reg.spans().record_complete(stream, 1000, 3000, 7, 42);
  const std::vector<CompletedSpan> spans = spans_of(m.reg);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(span_name(m.reg, spans[0]), "virtual");
  EXPECT_EQ(spans[0].begin_ns, 1000u);
  EXPECT_EQ(spans[0].end_ns, 3000u);
  EXPECT_EQ(spans[0].track, 7u);
  EXPECT_EQ(spans[0].arg, 42u);
}

// ---------------------------------------------------------------------------
// Exporter golden files — byte-stable under a fixed clock.

/// One deterministic registry used by all the exporter golden tests.
void populate_golden(ManualClockRegistry& m) {
  Registry& reg = m.reg;
  reg.metrics().counter("aegis_demo_total").inc(3);
  reg.metrics().gauge("aegis_demo_depth").set(2.5);

  m.now = 1000;
  {
    ScopedSpan phase(reg.spans(), "phase", 1, 9);
    m.now = 4000;
  }
  reg.spans().record_complete(reg.spans().stream("window"), 2000, 2500, 3, 7);

  // An admission decision as BudgetGovernor records it: tenant 5 admitted
  // at granularity 1 for 60 releases, ε after = 2.25.
  const double epsilon_after = 2.25;
  std::uint64_t bits = 0;
  std::memcpy(&bits, &epsilon_after, sizeof(bits));
  reg.recorder().record_named("governor.decision", WideEventType::kAdmission,
                              m.now, 0, 1, 60, bits, 5);
}

/// The registry's recorder as aegis_top reads it: written, then parsed.
DumpDocument dump_of(const Registry& reg) {
  std::ostringstream os;
  reg.recorder().write_dump(os);
  std::istringstream is(os.str());
  std::optional<DumpDocument> doc = read_dump(is);
  EXPECT_TRUE(doc.has_value());
  return doc.value_or(DumpDocument{});
}

TEST(Exporters, JsonSnapshotGolden) {
  ManualClockRegistry m;
  populate_golden(m);
  std::ostringstream os;
  write_json_snapshot(m.reg.metrics().snapshot(), os);
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"counters\": {\n"
            "    \"aegis_demo_total\": 3\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"aegis_demo_depth\": 2.5\n"
            "  }\n"
            "}\n");
}

TEST(Exporters, JsonSnapshotWritesNonFiniteGaugesAsNull) {
  // A gauge holds whatever double its site sets; JSON has no infinity or
  // NaN, and aegis_top must still parse the snapshot.
  MetricsRegistry metrics;
  metrics.gauge("aegis_demo_inf").set(std::numeric_limits<double>::infinity());
  metrics.gauge("aegis_demo_nan").set(std::numeric_limits<double>::quiet_NaN());
  std::ostringstream os;
  write_json_snapshot(metrics.snapshot(), os);
  const JsonValue doc = parse_json(os.str());
  EXPECT_TRUE(doc.at("gauges").at("aegis_demo_inf").is_null());
  EXPECT_TRUE(doc.at("gauges").at("aegis_demo_nan").is_null());
}

TEST(Exporters, TraceJsonGolden) {
  ManualClockRegistry m;
  populate_golden(m);
  std::ostringstream os;
  write_recorder_trace_json(dump_of(m.reg), os);
  EXPECT_EQ(os.str(),
            "{\"traceEvents\": [\n"
            "  {\"name\": \"phase\", \"cat\": \"span\", \"ph\": \"X\", "
            "\"ts\": 1, \"dur\": 3, \"pid\": 1, \"tid\": 1, \"args\": "
            "{\"id\": 1, \"parent\": 0, \"arg\": 9}},\n"
            "  {\"name\": \"window\", \"cat\": \"span\", \"ph\": \"X\", "
            "\"ts\": 2, \"dur\": 0.5, \"pid\": 1, \"tid\": 3, \"args\": "
            "{\"id\": 2, \"parent\": 0, \"arg\": 7}},\n"
            "  {\"name\": \"epsilon tenant 5\", \"cat\": \"admission\", "
            "\"ph\": \"C\", \"ts\": 4, \"pid\": 1, \"tid\": 0, \"args\": "
            "{\"epsilon\": 2.25}}\n"
            "], \"displayTimeUnit\": \"ms\"}\n");
}

TEST(Exporters, GoldenOutputIsByteStableAcrossRuns) {
  auto render = [] {
    ManualClockRegistry m;
    populate_golden(m);
    std::ostringstream snap, trace;
    write_json_snapshot(m.reg.metrics().snapshot(), snap);
    write_recorder_trace_json(dump_of(m.reg), trace);
    return snap.str() + trace.str();
  };
  EXPECT_EQ(render(), render());
}

// ---------------------------------------------------------------------------
// JSON reader

TEST(JsonReader, RoundTripsASnapshot) {
  ManualClockRegistry m;
  populate_golden(m);
  std::ostringstream os;
  write_json_snapshot(m.reg.metrics().snapshot(), os);

  const JsonValue doc = parse_json(os.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("counters").at("aegis_demo_total").as_u64(), 3u);
  ASSERT_TRUE(doc.at("counters").is_object());
  EXPECT_EQ(doc.at("counters").object.size(), 1u);
  EXPECT_EQ(doc.at("counters").at("aegis_demo_total").as_u64(), 3u);
  ASSERT_TRUE(doc.at("gauges").is_object());
  EXPECT_EQ(doc.at("gauges").object.size(), 1u);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("aegis_demo_depth").number, 2.5);
  EXPECT_TRUE(doc.at("histograms").is_null());
}

TEST(JsonReader, MissingKeyYieldsSharedNull) {
  const JsonValue doc = parse_json("{\"a\": 1}");
  EXPECT_TRUE(doc.at("missing").is_null());
  EXPECT_EQ(doc.at("missing").as_u64(), 0u);
}

TEST(JsonReader, ParsesEscapesAndNesting) {
  const JsonValue doc =
      parse_json("{\"s\": \"a\\\"b\\\\c\\n\", \"arr\": [true, false, null, "
                 "-2.5e1], \"o\": {\"k\": 1}}");
  EXPECT_EQ(doc.at("s").string, "a\"b\\c\n");
  ASSERT_EQ(doc.at("arr").array.size(), 4u);
  EXPECT_TRUE(doc.at("arr").array[0].boolean);
  EXPECT_TRUE(doc.at("arr").array[2].is_null());
  EXPECT_DOUBLE_EQ(doc.at("arr").array[3].number, -25.0);
  EXPECT_EQ(doc.at("o").at("k").as_u64(), 1u);
}

TEST(JsonReader, ThrowsOnMalformedInput) {
  EXPECT_THROW(parse_json("{"), JsonParseError);
  EXPECT_THROW(parse_json("{\"a\": }"), JsonParseError);
  EXPECT_THROW(parse_json("[1, 2,]"), JsonParseError);
  EXPECT_THROW(parse_json("{} trailing"), JsonParseError);
  EXPECT_THROW(parse_json(""), JsonParseError);
}

TEST(JsonReader, RejectsNestingDeeperThanTheBound) {
  // A million '[' overflowed the recursive parser's stack before the bound.
  EXPECT_THROW(parse_json(std::string(1'000'000, '[')), JsonParseError);
  const auto arrays = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW(parse_json(arrays(kJsonMaxDepth)));
  EXPECT_THROW(parse_json(arrays(kJsonMaxDepth + 1)), JsonParseError);
  // Objects and arrays share the bound.
  std::string mixed = "1";
  for (std::size_t d = 0; d < kJsonMaxDepth; ++d) {
    mixed = d % 2 == 0 ? "{\"k\": " + mixed + "}" : "[" + mixed + "]";
  }
  EXPECT_NO_THROW(parse_json(mixed));
  EXPECT_THROW(parse_json("[" + mixed + "]"), JsonParseError);
}

TEST(JsonReader, HugeNumbersSaturateOrAreRejected) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  // The largest counter write_json_snapshot can print rounds to 2^64.
  EXPECT_EQ(parse_json("18446744073709551615").as_u64(), kMax);
  EXPECT_EQ(parse_json("1e300").as_u64(), kMax);
  EXPECT_EQ(parse_json("-1e300").as_u64(), 0u);
  EXPECT_EQ(parse_json("9007199254740992").as_u64(), 9007199254740992u);
  EXPECT_THROW(parse_json("1e999"), JsonParseError);
  EXPECT_THROW(parse_json("[-1e999]"), JsonParseError);
}

/// A service-like metrics snapshot as write_json_snapshot writes it: plain
/// and tenant-labelled counters and gauges (escaped quotes in the names) and
/// a non-finite gauge (written as null).
std::string snapshot_golden() {
  MetricsRegistry metrics;
  metrics.counter("aegis_sessions_started_total").inc(1000);
  metrics.counter("aegis_sessions_completed_total").inc(998);
  metrics.counter("aegis_sessions_refused_total").inc(2);
  for (int t = 0; t < 3; ++t) {
    const std::string label = "{tenant=\"" + std::to_string(t) + "\"}";
    metrics.counter("aegis_tenant_admitted_total" + label).inc(300 + t);
    metrics.gauge("aegis_tenant_epsilon_advanced" + label).set(0.75 * (t + 1));
    metrics.gauge("aegis_tenant_epsilon_remaining" + label)
        .set(8.0 - 0.75 * (t + 1));
  }
  metrics.gauge("aegis_sessions_active").set(0.0);
  metrics.gauge("aegis_demo_inf").set(std::numeric_limits<double>::infinity());
  std::ostringstream os;
  write_json_snapshot(metrics.snapshot(), os);
  return os.str();
}

/// Reads every number the way aegis_top does (as_u64 and the raw double).
std::uint64_t touch_numbers(const JsonValue& v) {
  std::uint64_t sum = v.as_u64() + (v.number > 0.0 ? 1 : 0);
  for (const JsonValue& e : v.array) sum += touch_numbers(e);
  for (const auto& [key, e] : v.object) sum += touch_numbers(e);
  return sum;
}

TEST(JsonReader, SeededMutationsOfASnapshotParseOrReject) {
  const std::string golden = snapshot_golden();
  ASSERT_EQ(parse_json(golden).at("counters").object.size(), 6u);
  std::vector<std::string> lines;
  for (std::size_t at = 0; at < golden.size();) {
    const std::size_t end = golden.find('\n', at) + 1;
    lines.push_back(golden.substr(at, end - at));
    at = end;
  }
  const std::vector<std::string> huge = {
      "1e999", "-1e999", "18446744073709551616", "1e308", "-0",
      "4" + std::string(400, '9'), "0." + std::string(400, '0') + "1"};
  util::Rng rng(0x150DEC0DEULL);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next_u64() % n);
  };
  // Far above what parsing a document of a few kilobytes needs; a parser
  // that sized anything from a claimed length or the nesting would cross it.
  constexpr std::size_t kAllocBound = std::size_t{64} << 10;
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::string bytes = golden;
    switch (iter % 6) {
      case 0:  // byte flips anywhere
        for (int k = 0, n = 1 + static_cast<int>(pick(8)); k < n; ++k) {
          bytes[pick(bytes.size())] ^= static_cast<char>(1 + pick(255));
        }
        break;
      case 1:  // truncation
        bytes.resize(pick(bytes.size() + 1));
        break;
      case 2: {  // splice: copy a chunk over another place
        const std::size_t from = pick(bytes.size());
        const std::size_t len = 1 + pick(std::min<std::size_t>(
                                        bytes.size() - from, 200));
        const std::string chunk = bytes.substr(from, len);
        bytes.insert(pick(bytes.size() + 1), chunk);
        break;
      }
      case 3: {  // duplicate or drop whole lines (one key per line)
        std::vector<std::string> mutated = lines;
        const std::size_t line = pick(mutated.size());
        if (pick(2) == 0) {
          mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(
                                               pick(mutated.size() + 1)),
                         mutated[line]);
        } else {
          mutated.erase(mutated.begin() + static_cast<std::ptrdiff_t>(line));
        }
        bytes.clear();
        for (const std::string& l : mutated) bytes += l;
        break;
      }
      case 4: {  // a value replaced by a huge or extreme number
        std::size_t at = bytes.find(": ", pick(bytes.size()));
        if (at == std::string::npos) at = bytes.find(": ");
        at += 2;
        const std::size_t end = bytes.find_first_of(",\n}", at);
        bytes.replace(at, end - at, huge[pick(huge.size())]);
        break;
      }
      default: {  // wrap the document in arrays, shallow or very deep
        const std::size_t depth =
            pick(4) == 0 ? 100'000 : 1 + pick(2 * kJsonMaxDepth);
        bytes = std::string(depth, '[') + bytes + std::string(depth, ']');
        break;
      }
    }
    g_largest_alloc.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    std::optional<JsonValue> doc;
    try {
      doc = parse_json(bytes);
    } catch (const JsonParseError&) {
    } catch (...) {
      ADD_FAILURE() << "mutation " << iter << " threw another exception";
    }
    g_count_allocs.store(false, std::memory_order_relaxed);
    EXPECT_LE(g_largest_alloc.load(std::memory_order_relaxed), kAllocBound)
        << "mutation " << iter;
    if (!doc.has_value()) {
      ++rejected;
      continue;
    }
    ++parsed;
    (void)touch_numbers(*doc);
  }
  // Both outcomes occur, so the mutations reach past the first byte.
  EXPECT_GT(parsed, 300u);
  EXPECT_GT(rejected, 300u);
}

// ---------------------------------------------------------------------------
// Registry plumbing

TEST(Registry, ResolveFallsBackToGlobal) {
  Registry local;
  EXPECT_EQ(&resolve(&local), &local);
  EXPECT_EQ(&resolve(nullptr), &Registry::global());
}

TEST(Registry, GlobalIsStable) {
  EXPECT_EQ(&Registry::global(), &Registry::global());
}

TEST(Registry, DefaultClockTicksOncePerRead) {
  Registry reg;
  const std::uint64_t first = reg.now_ns();
  EXPECT_EQ(reg.now_ns(), first + 1000);
  Registry other;  // each registry owns its tick
  EXPECT_EQ(other.now_ns(), 0u);
}

}  // namespace
}  // namespace aegis::telemetry
