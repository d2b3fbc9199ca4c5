// Telemetry subsystem tests: histogram bucket semantics, snapshot merge
// determinism, byte-stable exporter golden files under a fixed clock, span
// parentage read back from the flight recorder, the JSON reader, and a
// threaded registry stress intended for the TSan config of the CI matrix.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/exporters.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/json_reader.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span_tracer.hpp"

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
  Histogram h;
  c.inc();
  g.set(3.0);
  g.add(1.0);
  h.observe(2.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(Metrics, GaugeSetAndAdd) {
  MetricsRegistry reg;
  Gauge g = reg.gauge("g");
  g.set(2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(Metrics, HistogramBucketBoundariesAreInclusiveUpperBounds) {
  MetricsRegistry reg;
  const std::array<double, 3> bounds = {1.0, 10.0, 100.0};
  Histogram h = reg.histogram("h", bounds);
  // Prometheus `le` semantics: a value equal to a bound lands IN that
  // bucket; strictly greater spills to the next.
  h.observe(0.5);    // bucket 0 (le 1)
  h.observe(1.0);    // bucket 0 (le 1) — boundary is inclusive
  h.observe(1.0001); // bucket 1 (le 10)
  h.observe(10.0);   // bucket 1
  h.observe(100.0);  // bucket 2 (le 100)
  h.observe(100.5);  // bucket 3 (+Inf overflow)

  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const HistogramSample& s = snap.histograms[0];
  ASSERT_EQ(s.buckets.size(), 4u);  // bounds + overflow
  EXPECT_EQ(s.buckets[0], 2u);
  EXPECT_EQ(s.buckets[1], 2u);
  EXPECT_EQ(s.buckets[2], 1u);
  EXPECT_EQ(s.buckets[3], 1u);
  EXPECT_EQ(s.count, 6u);
  EXPECT_DOUBLE_EQ(s.sum, 0.5 + 1.0 + 1.0001 + 10.0 + 100.0 + 100.5);
}

TEST(Metrics, HistogramRejectsNonIncreasingBounds) {
  MetricsRegistry reg;
  const std::array<double, 3> bad = {1.0, 1.0, 2.0};
  EXPECT_THROW(reg.histogram("bad", bad), std::invalid_argument);
}

TEST(Metrics, FirstHistogramBoundsWin) {
  MetricsRegistry reg;
  const std::array<double, 2> first = {1.0, 2.0};
  const std::array<double, 1> second = {5.0};
  reg.histogram("h", first);
  Histogram again = reg.histogram("h", second);
  again.observe(1.5);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].bounds, (std::vector<double>{1.0, 2.0}));
}

TEST(Metrics, SnapshotIsSortedByName) {
  MetricsRegistry reg;
  reg.counter("zz");
  reg.counter("aa");
  reg.counter("mm");
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "aa");
  EXPECT_EQ(snap.counters[1].name, "mm");
  EXPECT_EQ(snap.counters[2].name, "zz");
}

TEST(Metrics, MergeSumsCountersAndMatchingHistograms) {
  MetricsRegistry ra, rb;
  const std::array<double, 2> bounds = {1.0, 2.0};
  ra.counter("shared").inc(3);
  rb.counter("shared").inc(4);
  ra.counter("only_a").inc(1);
  rb.counter("only_b").inc(2);
  ra.gauge("g").set(1.0);
  rb.gauge("g").set(9.0);
  ra.histogram("h", bounds).observe(0.5);
  rb.histogram("h", bounds).observe(1.5);

  const MetricsSnapshot merged = merge_snapshots(ra.snapshot(), rb.snapshot());
  ASSERT_EQ(merged.counters.size(), 3u);
  EXPECT_EQ(merged.counters[0].name, "only_a");
  EXPECT_EQ(merged.counters[1].name, "only_b");
  EXPECT_EQ(merged.counters[2].name, "shared");
  EXPECT_EQ(merged.counters[2].value, 7u);
  ASSERT_EQ(merged.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(merged.gauges[0].value, 9.0);  // b wins
  ASSERT_EQ(merged.histograms.size(), 1u);
  EXPECT_EQ(merged.histograms[0].count, 2u);
  EXPECT_EQ(merged.histograms[0].buckets[0], 1u);
  EXPECT_EQ(merged.histograms[0].buckets[1], 1u);
}

TEST(Metrics, MergeIsDeterministic) {
  MetricsRegistry ra, rb;
  ra.counter("x").inc(1);
  rb.counter("y").inc(2);
  const MetricsSnapshot m1 = merge_snapshots(ra.snapshot(), rb.snapshot());
  const MetricsSnapshot m2 = merge_snapshots(ra.snapshot(), rb.snapshot());
  ASSERT_EQ(m1.counters.size(), m2.counters.size());
  for (std::size_t i = 0; i < m1.counters.size(); ++i) {
    EXPECT_EQ(m1.counters[i].name, m2.counters[i].name);
    EXPECT_EQ(m1.counters[i].value, m2.counters[i].value);
  }
}

// TSan target: many threads hammering one counter/gauge/histogram while a
// reader snapshots concurrently. Correctness check: the final counter total
// equals the number of increments (shards never lose writes).
TEST(Metrics, ThreadedRegistryStress) {
  MetricsRegistry reg;
  Counter c = reg.counter("stress_total");
  Gauge g = reg.gauge("stress_gauge");
  const std::array<double, 3> bounds = {10.0, 100.0, 1000.0};
  Histogram h = reg.histogram("stress_hist", bounds);

  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < kIters; ++i) {
        c.inc();
        g.add(1.0);
        h.observe(static_cast<double>((w * kIters + i) % 2000));
        if (i % 4096 == 0) (void)reg.snapshot();  // concurrent reader
      }
    });
  }
  for (auto& t : workers) t.join();

  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads) * kIters);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count,
            static_cast<std::uint64_t>(kThreads) * kIters);
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
  const std::array<double, 2> bounds = {1.0, 10.0};
  Histogram h = reg.metrics().histogram("aegis_demo_reps", bounds);
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);

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

TEST(Exporters, PrometheusGolden) {
  ManualClockRegistry m;
  populate_golden(m);
  std::ostringstream os;
  write_prometheus(m.reg.metrics().snapshot(), os);
  EXPECT_EQ(os.str(),
            "# TYPE aegis_demo_total counter\n"
            "aegis_demo_total 3\n"
            "# TYPE aegis_demo_depth gauge\n"
            "aegis_demo_depth 2.5\n"
            "# TYPE aegis_demo_reps histogram\n"
            "aegis_demo_reps_bucket{le=\"1\"} 1\n"
            "aegis_demo_reps_bucket{le=\"10\"} 2\n"
            "aegis_demo_reps_bucket{le=\"+Inf\"} 3\n"
            "aegis_demo_reps_sum 55.5\n"
            "aegis_demo_reps_count 3\n");
}

TEST(Exporters, PrometheusHelpLinesAreOptInAndEscaped) {
  Registry reg;
  reg.metrics().counter("aegis_helped_total").inc(1);
  reg.metrics().counter("aegis_unhelped_total").inc(2);
  reg.metrics().set_help("aegis_helped_total",
                         "line one\nline two with a back\\slash");
  std::ostringstream os;
  write_prometheus(reg.metrics().snapshot(), os);
  EXPECT_EQ(os.str(),
            "# HELP aegis_helped_total line one\\nline two with a "
            "back\\\\slash\n"
            "# TYPE aegis_helped_total counter\n"
            "aegis_helped_total 1\n"
            "# TYPE aegis_unhelped_total counter\n"
            "aegis_unhelped_total 2\n")
      << "HELP must be opt-in (no line for aegis_unhelped_total) and must "
         "escape backslash + newline per the text-format spec";
}

TEST(Exporters, PrometheusLabelValuesEscapeQuoteBackslashAndNewline) {
  Registry reg;
  // Registration sites compose label values raw; a hostile value must not
  // be able to break out of the quoted string or inject a sample line.
  reg.metrics()
      .counter("aegis_evil_total{tenant=\"a\\b\"\nc\",zone=\"ok\"}")
      .inc(7);
  reg.metrics().gauge("aegis_plain{tenant=\"4\"}").set(1.5);
  std::ostringstream os;
  write_prometheus(reg.metrics().snapshot(), os);
  EXPECT_EQ(os.str(),
            "# TYPE aegis_evil_total counter\n"
            "aegis_evil_total{tenant=\"a\\\\b\\\"\\nc\",zone=\"ok\"} 7\n"
            "# TYPE aegis_plain gauge\n"
            "aegis_plain{tenant=\"4\"} 1.5\n");
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
            "  },\n"
            "  \"histograms\": {\n"
            "    \"aegis_demo_reps\": {\"bounds\": [1, 10], \"buckets\": "
            "[1, 1, 1], \"count\": 3, \"sum\": 55.5}\n"
            "  }\n"
            "}\n");
}

TEST(Exporters, JsonSnapshotWritesNonFiniteGaugesAsNull) {
  // A forecaster ETA gauge is +inf until the burn slope turns positive;
  // JSON has no infinity, and aegis_top must still parse the snapshot.
  MetricsRegistry metrics;
  metrics.gauge("aegis_tenant_eta_ns{tenant=\"0\"}")
      .set(std::numeric_limits<double>::infinity());
  std::ostringstream os;
  write_json_snapshot(metrics.snapshot(), os);
  const JsonValue doc = parse_json(os.str());
  EXPECT_TRUE(doc.at("gauges").at("aegis_tenant_eta_ns{tenant=\"0\"}").is_null());
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
    std::ostringstream prom, snap, trace;
    write_prometheus(m.reg.metrics().snapshot(), prom);
    write_json_snapshot(m.reg.metrics().snapshot(), snap);
    write_recorder_trace_json(dump_of(m.reg), trace);
    return prom.str() + snap.str() + trace.str();
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
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("aegis_demo_depth").number, 2.5);
  const JsonValue& hist = doc.at("histograms").at("aegis_demo_reps");
  ASSERT_TRUE(hist.at("buckets").is_array());
  EXPECT_EQ(hist.at("buckets").array.size(), 3u);
  EXPECT_DOUBLE_EQ(hist.at("sum").number, 55.5);
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
