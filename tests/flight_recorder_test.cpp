// Flight-recorder tests: the seqlock ring protocol (single-thread semantics,
// overwrite-oldest drops, disabled/null paths), the byte-exact v2 dump
// format and its chrome://tracing conversion, span pairing, seeded dump
// mutations (any bytes parse or are rejected; any parsed dump renders),
// concurrent writers + drains under TSan, the allocation-free record-path
// proof (instrumented global allocator), and the seeded-crash dump (fork +
// abort -> parseable dump holding the last ring_capacity events).
#include "telemetry/flight_recorder.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/json_reader.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span_tracer.hpp"
#include "util/rng.hpp"

// ---------------------------------------------------------------------------
// Instrumented global allocator. Counting is gated on a flag so only the
// record-path window is measured; gtest bookkeeping outside it stays free.

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::size_t> g_largest_alloc{0};

void* counted_alloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    std::size_t largest = g_largest_alloc.load(std::memory_order_relaxed);
    while (size > largest && !g_largest_alloc.compare_exchange_weak(
                                 largest, size, std::memory_order_relaxed)) {
    }
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace aegis::telemetry {
namespace {

RecorderConfig small_config(std::size_t capacity, std::size_t rings) {
  RecorderConfig c;
  c.ring_capacity = capacity;
  c.rings = rings;
  return c;
}

// ---------------------------------------------------------------------------
// Ring semantics

TEST(FlightRecorder, SingleThreadRecordAndDrainSortsByTime) {
  FlightRecorder rec(small_config(8, 1));
  EventHandle alpha = rec.event_handle("alpha", WideEventType::kHotExec);
  EventHandle beta = rec.event_handle("beta", WideEventType::kAlert);
  alpha.record(/*t_ns=*/5, 1, 2, 3, 4, /*tenant=*/7);
  beta.record(/*t_ns=*/3, 9);

  const std::vector<DrainedEvent> events = rec.drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].t_ns, 3u);  // sorted by t_ns, not claim order
  EXPECT_EQ(events[0].a, 9u);
  EXPECT_EQ(events[0].type,
            static_cast<std::uint16_t>(WideEventType::kAlert));
  EXPECT_EQ(events[0].stream, 1u);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[1].t_ns, 5u);
  EXPECT_EQ(events[1].d, 4u);
  EXPECT_EQ(events[1].tenant, 7u);
  EXPECT_EQ(events[1].stream, 0u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(rec.streams(), (std::vector<std::string>{"alpha", "beta"}));
}

TEST(FlightRecorder, EventHandleIsIdempotentPerName) {
  FlightRecorder rec(small_config(8, 1));
  rec.event_handle("one", WideEventType::kMetricDelta);
  rec.event_handle("one", WideEventType::kMetricDelta);
  rec.event_handle("two", WideEventType::kMetricDelta);
  EXPECT_EQ(rec.streams().size(), 2u);
}

TEST(FlightRecorder, OverwriteOldestKeepsTheNewestAndCountsDrops) {
  FlightRecorder rec(small_config(4, 1));
  EventHandle h = rec.event_handle("wrap", WideEventType::kMetricDelta);
  for (std::uint64_t i = 0; i < 10; ++i) h.record(i, i * 10);

  const std::vector<DrainedEvent> events = rec.drain();
  ASSERT_EQ(events.size(), 4u);  // newest ring_capacity events survive
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].t_ns, 6 + i);
    EXPECT_EQ(events[i].a, (6 + i) * 10);
    EXPECT_EQ(events[i].seq, 6 + i);
  }
  EXPECT_EQ(rec.dropped(), 6u);
}

TEST(FlightRecorder, NullHandleIsANoop) {
  EventHandle h;
  EXPECT_FALSE(h.attached());
  h.record(1, 2, 3, 4, 5, 6);  // must not crash
}

TEST(FlightRecorder, RecordNamedSharesTheStreamWithTheHandle) {
  FlightRecorder rec(small_config(8, 1));
  EventHandle h = rec.event_handle("shared", WideEventType::kMetricDelta);
  h.record(1);
  rec.record_named("shared", WideEventType::kMetricDelta, 2);
  const std::vector<DrainedEvent> events = rec.drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].stream, events[1].stream);
  EXPECT_EQ(rec.streams().size(), 1u);
}

TEST(FlightRecorder, ClearResetsRingsAndDropCounters) {
  FlightRecorder rec(small_config(4, 1));
  EventHandle h = rec.event_handle("x", WideEventType::kMetricDelta);
  for (std::uint64_t i = 0; i < 9; ++i) h.record(i);
  EXPECT_GT(rec.dropped(), 0u);
  rec.clear();
  EXPECT_TRUE(rec.drain().empty());
  EXPECT_EQ(rec.dropped(), 0u);
}

// ---------------------------------------------------------------------------
// Allocation-free record path

TEST(FlightRecorder, RecordPathIsAllocationFree) {
  FlightRecorder rec(small_config(256, 2));
  EventHandle h = rec.event_handle("hot", WideEventType::kHotExec);

  g_allocs.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    h.record(i, i + 1, i + 2, i + 3, i + 4, 42);
  }
  g_count_allocs.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 0u)
      << "EventHandle::record allocated on the hot path";
}

// ---------------------------------------------------------------------------
// Dump format v2

void put_u16(std::string& s, std::uint16_t v) {
  for (int i = 0; i < 2; ++i) s.push_back(static_cast<char>(v >> (8 * i)));
}
void put_u32(std::string& s, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) s.push_back(static_cast<char>(v >> (8 * i)));
}
void put_u64(std::string& s, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) s.push_back(static_cast<char>(v >> (8 * i)));
}
void put_record(std::string& s, std::uint64_t t, std::uint64_t a,
                std::uint64_t b, std::uint64_t c, std::uint64_t d,
                std::uint16_t type, std::uint16_t stream, std::uint32_t tenant,
                std::uint32_t ring, std::uint32_t seq) {
  put_u64(s, t);
  put_u64(s, a);
  put_u64(s, b);
  put_u64(s, c);
  put_u64(s, d);
  put_u64(s, (static_cast<std::uint64_t>(type) << 48) |
                 (static_cast<std::uint64_t>(stream) << 32) | tenant);
  put_u32(s, ring);
  put_u32(s, seq);
}

/// The recorder used by the byte-golden, round-trip and tracing tests:
/// one ring, streams "alpha" (kHotExec, id 0) and "beta" (kAlert, id 1),
/// alpha@t=5 then beta@t=3 so the sorted dump reorders them.
std::unique_ptr<FlightRecorder> golden_recorder() {
  auto rec = std::make_unique<FlightRecorder>(small_config(8, 1));
  EventHandle alpha = rec->event_handle("alpha", WideEventType::kHotExec);
  EventHandle beta = rec->event_handle("beta", WideEventType::kAlert);
  alpha.record(5, 1, 2, 3, 4, 7);
  beta.record(3, 9);
  return rec;
}

TEST(FlightRecorderDump, WriteDumpIsByteExact) {
  std::ostringstream os;
  golden_recorder()->write_dump(os);

  std::string want = "AEGISFR1";
  put_u32(want, 2);   // format version
  put_u32(want, 56);  // record size
  put_u64(want, 2);   // event count
  put_u64(want, 0);   // dropped
  put_u32(want, 13);  // name table: (2+5) + (2+4) bytes
  put_u32(want, 2);   // name table entries
  put_u16(want, 5);
  want += "alpha";
  put_u16(want, 4);
  want += "beta";
  // drain() order: (t_ns, ring, seq) ascending — beta first.
  put_record(want, 3, 9, 0, 0, 0, /*type=*/7, /*stream=*/1, 0, 0, /*seq=*/1);
  put_record(want, 5, 1, 2, 3, 4, /*type=*/8, /*stream=*/0, 7, 0, /*seq=*/0);

  EXPECT_EQ(os.str(), want);
}

TEST(FlightRecorderDump, RoundTripsThroughReadDump) {
  auto rec = golden_recorder();
  std::ostringstream os;
  rec->write_dump(os);
  std::istringstream is(os.str());

  const std::optional<DumpDocument> doc = read_dump(is);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->version, 2u);
  EXPECT_EQ(doc->dropped, 0u);
  EXPECT_EQ(doc->streams, (std::vector<std::string>{"alpha", "beta"}));
  const std::vector<DrainedEvent> live = rec->drain();
  ASSERT_EQ(doc->events.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(doc->events[i].t_ns, live[i].t_ns);
    EXPECT_EQ(doc->events[i].a, live[i].a);
    EXPECT_EQ(doc->events[i].type, live[i].type);
    EXPECT_EQ(doc->events[i].stream, live[i].stream);
    EXPECT_EQ(doc->events[i].tenant, live[i].tenant);
    EXPECT_EQ(doc->events[i].seq, live[i].seq);
  }
}

TEST(FlightRecorderDump, TraceJsonConversionIsByteExact) {
  auto rec = golden_recorder();
  std::ostringstream dump;
  rec->write_dump(dump);
  std::istringstream is(dump.str());
  const std::optional<DumpDocument> doc = read_dump(is);
  ASSERT_TRUE(doc.has_value());

  std::ostringstream os;
  write_recorder_trace_json(*doc, os);
  EXPECT_EQ(os.str(),
            "{\"traceEvents\": [\n"
            "  {\"name\": \"beta\", \"cat\": \"alert\", \"ph\": \"i\", "
            "\"s\": \"t\", \"ts\": 0.003, \"pid\": 1, \"tid\": 0, "
            "\"args\": {\"a\": 9, \"b\": 0, \"c\": 0, \"d\": 0, "
            "\"tenant\": 0, \"seq\": 1}},\n"
            "  {\"name\": \"alpha\", \"cat\": \"hot-exec\", \"ph\": \"i\", "
            "\"s\": \"t\", \"ts\": 0.005, \"pid\": 1, \"tid\": 0, "
            "\"args\": {\"a\": 1, \"b\": 2, \"c\": 3, \"d\": 4, "
            "\"tenant\": 7, \"seq\": 0}}\n"
            "], \"displayTimeUnit\": \"ms\"}\n");
}

TEST(FlightRecorderDump, TruncatedRecordStreamParsesThePrefix) {
  std::ostringstream os;
  golden_recorder()->write_dump(os);
  const std::string full = os.str();
  // Cut mid-way through the last record: the reader keeps what landed.
  std::istringstream is(full.substr(0, full.size() - 10));
  const std::optional<DumpDocument> doc = read_dump(is);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->events.size(), 1u);
  EXPECT_EQ(doc->events[0].t_ns, 3u);
}

TEST(FlightRecorderDump, BadMagicIsRejected) {
  std::istringstream is("NOTADUMPxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx");
  EXPECT_FALSE(read_dump(is).has_value());
}

TEST(FlightRecorderDump, OtherVersionsAreRejected) {
  std::ostringstream os;
  golden_recorder()->write_dump(os);
  for (std::uint32_t version : {0u, 1u, 3u, 0xFFFFFFFFu}) {
    std::string bytes = os.str();
    std::string field;
    put_u32(field, version);
    bytes.replace(8, 4, field);
    std::istringstream is(bytes);
    EXPECT_FALSE(read_dump(is).has_value()) << "version " << version;
  }
}

TEST(FlightRecorderDump, OversizedNameTableClaimIsRejectedBeforeAllocating) {
  // A bare 40-byte header claiming a 4 GiB name table: the reader must
  // refuse it from the header alone, not allocate the claim first.
  std::string header = "AEGISFR1";
  put_u32(header, 2);           // format version
  put_u32(header, 56);          // record size
  put_u64(header, 0);           // event count
  put_u64(header, 0);           // dropped
  put_u32(header, 0xFFFFFFFF);  // name table length
  put_u32(header, 0);           // name table entries
  ASSERT_EQ(header.size(), 40u);
  std::istringstream is(header);
  EXPECT_FALSE(read_dump(is).has_value());
}

TEST(FlightRecorderDump, SignalSafeDumpUsesUntilEofCountAndParses) {
  auto rec = golden_recorder();
  const std::string path = testing::TempDir() + "aegis_fr_fd_dump.frd";
  ASSERT_TRUE(rec->dump_to_file(path.c_str()));
  const std::optional<DumpDocument> doc = read_dump_file(path.c_str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->version, 2u);
  // Per-ring claim order (no sort in signal context): alpha then beta.
  ASSERT_EQ(doc->events.size(), 2u);
  EXPECT_EQ(doc->events[0].t_ns, 5u);
  EXPECT_EQ(doc->events[1].t_ns, 3u);
  EXPECT_EQ(doc->streams, (std::vector<std::string>{"alpha", "beta"}));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Span pairing and the trace exporter over hostile documents

DrainedEvent span_event(WideEventType type, std::uint64_t t, std::uint64_t id,
                        std::uint16_t stream = 0, std::uint64_t arg = 0,
                        std::uint64_t parent = 0, std::uint64_t track = 0) {
  DrainedEvent ev;
  ev.type = static_cast<std::uint16_t>(type);
  ev.t_ns = t;
  ev.a = id;
  ev.b = type == WideEventType::kSpanBegin ? arg : 0;
  ev.c = type == WideEventType::kSpanBegin ? parent : 0;
  ev.d = track;
  ev.stream = stream;
  return ev;
}

/// Renders `doc` and parses the result back: any parsed dump must render to
/// valid JSON.
JsonValue render(const DumpDocument& doc) {
  std::ostringstream os;
  write_recorder_trace_json(doc, os);
  return parse_json(os.str());
}

TEST(SpanPairing, PairsByIdAndLeavesTheRestUnpaired) {
  using T = WideEventType;
  DumpDocument doc;
  doc.version = 2;
  doc.streams = {"outer", "inner"};
  doc.events = {
      span_event(T::kSpanBegin, 10, 1, 0, /*arg=*/7, 0, /*track=*/2),
      span_event(T::kSpanBegin, 20, 2, 1, 0, /*parent=*/1),
      span_event(T::kSpanEnd, 5, 3, 1),        // end with no begin
      span_event(T::kSpanEnd, 30, 2, 1),       // pairs span 2
      span_event(T::kSpanEnd, 31, 2, 1),       // duplicate end
      span_event(T::kSpanBegin, 32, 1, 0),     // duplicate begin, id 1 open
      span_event(T::kSpanEnd, 8, 1, 0),        // stamped before its begin
      span_event(T::kSpanEnd, 40, 4, 0),       // reversed: end first...
      span_event(T::kSpanBegin, 41, 4, 0),     // ...then its begin
      span_event(T::kSpanBegin, 50, 5, 0),     // never ended
      span_event(T::kSpanEnd, 51, 5, 1),       // id 5, but another stream
  };
  const std::vector<CompletedSpan> spans = completed_spans(doc.events);
  ASSERT_EQ(spans.size(), 2u);
  // Begin-event order: span 1 (index 0), then span 2 (index 1).
  EXPECT_EQ(spans[0].id, 1u);
  EXPECT_EQ(spans[0].begin_ns, 10u);
  EXPECT_EQ(spans[0].end_ns, 10u);  // clamped to its begin
  EXPECT_EQ(spans[0].arg, 7u);
  EXPECT_EQ(spans[0].track, 2u);
  EXPECT_EQ(spans[0].end_index, 6u);
  EXPECT_EQ(spans[1].id, 2u);
  EXPECT_EQ(spans[1].parent, 1u);
  EXPECT_EQ(spans[1].begin_ns, 20u);
  EXPECT_EQ(spans[1].end_ns, 30u);
  EXPECT_EQ(spans[1].stream, 1u);

  // Two complete events; the seven unpaired events render as instants.
  const JsonValue trace = render(doc);
  std::size_t complete = 0, instant = 0;
  for (const JsonValue& ev : trace.at("traceEvents").array) {
    if (ev.at("ph").string == "X") ++complete;
    if (ev.at("ph").string == "i") ++instant;
  }
  EXPECT_EQ(complete, 2u);
  EXPECT_EQ(instant, 7u);
}

TEST(SpanPairing, ExporterRendersOutOfRangeStreamsAndNonFiniteEpsilon) {
  DumpDocument doc;
  doc.version = 2;
  DrainedEvent admission;
  admission.type = static_cast<std::uint16_t>(WideEventType::kAdmission);
  admission.stream = 9;  // no such stream
  admission.d = 0x7FF8000000000001ULL;  // a NaN ε
  doc.events.push_back(admission);
  doc.events.push_back(span_event(WideEventType::kSpanBegin, 1, 1, 9));
  doc.events.push_back(span_event(WideEventType::kSpanEnd, 2, 1, 9));
  DrainedEvent unknown;
  unknown.type = 0xBEEF;
  unknown.stream = 0xFFFF;
  doc.events.push_back(unknown);
  const JsonValue trace = render(doc);
  const auto& events = trace.at("traceEvents").array;
  ASSERT_EQ(events.size(), 3u);
  EXPECT_TRUE(events[0].at("args").at("epsilon").is_null());
  EXPECT_EQ(events[1].at("name").string, "stream#9");
  EXPECT_EQ(events[2].at("cat").string, "?");
}

/// A deterministic dump the way a service writes it: paired spans (a
/// nested ScopedSpan and virtual-clock windows), a span still open at dump
/// time, admissions and alerts.
std::string service_like_dump() {
  std::uint64_t now = 0;
  Registry reg([&now] { return now += 250; });
  {
    ScopedSpan dispatch(reg.spans(), "service.dispatch", 0, 2);
    ScopedSpan session(reg.spans(), "fleet.session", 1, 3);
    const SpanStream window = reg.spans().stream("inject.window");
    for (std::uint64_t t = 0; t < 6; ++t) {
      reg.spans().record_complete(window, t * 1000, (t + 1) * 1000, 1, 3);
    }
  }
  const EventHandle decision =
      reg.recorder().event_handle("governor.decision", WideEventType::kAdmission);
  const EventHandle alert =
      reg.recorder().event_handle("anomaly.attack", WideEventType::kAlert);
  for (std::uint32_t tenant = 0; tenant < 3; ++tenant) {
    const double epsilon = 0.5 * (tenant + 1);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &epsilon, sizeof(bits));
    decision.record(now += 10, tenant % 3, 1, 60, bits, tenant);
    alert.record(now += 10, 2, bits, tenant, 0, tenant);
  }
  ScopedSpan open(reg.spans(), "service.register_template", 0, 42);
  std::ostringstream os;
  reg.recorder().write_dump(os);
  return os.str();
}

TEST(FlightRecorderDump, SeededMutationsParseOrRejectAndAlwaysRender) {
  const std::string golden = service_like_dump();
  std::size_t records = 0;
  {
    std::istringstream is(golden);
    const std::optional<DumpDocument> doc = read_dump(is);
    ASSERT_TRUE(doc.has_value());
    ASSERT_EQ(completed_spans(doc->events).size(), 8u);
    records = doc->events.size();
  }
  // The records are the dump's tail.
  constexpr std::size_t kRecord = 56;
  const std::size_t records_at = golden.size() - records * kRecord;
  util::Rng rng(0xD0C5EEDULL);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next_u64() % n);
  };
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    std::string bytes = golden;
    switch (iter % 5) {
      case 0:  // byte flips anywhere
        for (int k = 0, n = 1 + static_cast<int>(pick(8)); k < n; ++k) {
          bytes[pick(bytes.size())] ^= static_cast<char>(1 + pick(255));
        }
        break;
      case 1:  // truncation
        bytes.resize(pick(bytes.size() + 1));
        break;
      case 2: {  // splice: copy a chunk over another place, any alignment
        const std::size_t from = pick(bytes.size());
        const std::size_t len = 1 + pick(std::min<std::size_t>(
                                        bytes.size() - from, 3 * kRecord));
        const std::string chunk = bytes.substr(from, len);
        bytes.insert(pick(bytes.size() + 1), chunk);
        break;
      }
      case 3: {  // duplicate, drop or swap whole records
        const std::size_t a = records_at + pick(records) * kRecord;
        const std::size_t b = records_at + pick(records) * kRecord;
        const std::string ra = bytes.substr(a, kRecord);
        const std::string rb = bytes.substr(b, kRecord);
        switch (pick(3)) {
          case 0: bytes.insert(b, ra); break;
          case 1: bytes.erase(a, kRecord); break;
          default:
            bytes.replace(a, kRecord, rb);
            bytes.replace(b, kRecord, ra);
        }
        break;
      }
      default: {  // header field overwrite: count, dropped, table sizes
        const std::size_t field = 16 + 4 * pick(6);
        for (std::size_t k = 0; k < 4; ++k) {
          bytes[field + k] = static_cast<char>(rng.next_u64());
        }
        break;
      }
    }
    g_largest_alloc.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    std::istringstream is(bytes);
    const std::optional<DumpDocument> doc = read_dump(is);
    std::string json;
    if (doc.has_value()) {
      std::ostringstream os;
      write_recorder_trace_json(*doc, os);
      json = os.str();
    }
    g_count_allocs.store(false, std::memory_order_relaxed);
    // Bounded by the input, not by any length the header claims (the name
    // table cap is 1 MiB).
    EXPECT_LE(g_largest_alloc.load(std::memory_order_relaxed),
              std::size_t{2} << 20)
        << "mutation " << iter;
    if (!doc.has_value()) {
      ++rejected;
      continue;
    }
    ++parsed;
    EXPECT_NO_THROW(parse_json(json)) << "mutation " << iter;
  }
  // Both outcomes occur, so the mutations reach the renderer.
  EXPECT_GT(parsed, 1000u);
  EXPECT_GT(rejected, 10u);
}

// ---------------------------------------------------------------------------
// Concurrency (run under -DAEGIS_SANITIZE=thread in CI)

TEST(FlightRecorderConcurrency, EightWritersWithConcurrentDrainsStayClean) {
  FlightRecorder rec(small_config(256, 4));
  EventHandle h = rec.event_handle("stress", WideEventType::kMetricDelta);

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 5000;
  std::atomic<bool> stop{false};

  // Drainer races the writers: every delivered event must be internally
  // consistent (a == t_ns + 1) — torn slots are dropped, never delivered.
  std::thread drainer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const DrainedEvent& ev : rec.drain()) {
        ASSERT_EQ(ev.a, ev.t_ns + 1);
      }
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t stamp = static_cast<std::uint64_t>(t) * kPerThread + i;
        h.record(stamp, stamp + 1);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  drainer.join();

  const std::vector<DrainedEvent> final_events = rec.drain();
  EXPECT_LE(final_events.size(), 4u * 256u);
  EXPECT_FALSE(final_events.empty());
  for (const DrainedEvent& ev : final_events) {
    EXPECT_EQ(ev.a, ev.t_ns + 1);
  }
  // Nothing vanishes silently: whatever the rings no longer hold is
  // accounted as dropped.
  EXPECT_GE(final_events.size() + rec.dropped(), kThreads * kPerThread);
}

// ---------------------------------------------------------------------------
// Seeded crash -> parseable dump with the last N events

TEST(FlightRecorderCrash, AbortProducesAParseableDumpWithTheLastEvents) {
  const std::string prefix = testing::TempDir() + "aegis_fr_crash";
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: record 100 events into a 64-slot ring, arm, abort. The
    // SIGABRT hook must dump before the process dies.
    FlightRecorder rec(small_config(64, 1));
    EventHandle h = rec.event_handle("crash.site", WideEventType::kMetricDelta);
    for (std::uint64_t i = 0; i < 100; ++i) h.record(i, i * 2, 0xDEAD);
    rec.arm_crash_dump(prefix.c_str());
    std::abort();
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);

  const std::string path =
      prefix + "." + std::to_string(static_cast<int>(pid)) + ".frd";
  const std::optional<DumpDocument> doc = read_dump_file(path.c_str());
  ASSERT_TRUE(doc.has_value()) << "crash dump missing or unparseable: " << path;
  EXPECT_EQ(doc->version, 2u);
  ASSERT_EQ(doc->streams.size(), 1u);
  EXPECT_EQ(doc->streams[0], "crash.site");
  // The newest ring_capacity events survived the wrap; the tail is the
  // final event before the abort.
  ASSERT_EQ(doc->events.size(), 64u);
  EXPECT_EQ(doc->events.front().seq, 36u);
  EXPECT_EQ(doc->events.back().seq, 99u);
  EXPECT_EQ(doc->events.back().a, 198u);
  EXPECT_EQ(doc->events.back().b, 0xDEADu);
  EXPECT_EQ(doc->dropped, 36u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace aegis::telemetry
