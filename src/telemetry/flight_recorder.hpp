// Always-on flight recorder: per-thread ring buffers of fixed-size binary
// wide events, modeled on the Linux perf ring buffer the paper's real
// sampler would sit on.
//
// Design goals, in order:
//   1. The record path is wait-free and allocation-free, so it is legal
//      inside the existing `noalloc` regions (GadgetRunner::execute_once,
//      NoiseInjector::inject). Like MetricsRegistry, the slow path is the
//      by-name registration (`event_handle`) which takes a mutex and may
//      allocate; the returned EventHandle is a trivially-copyable pointer
//      wrapper whose record() is a claim-index fetch_add plus seven relaxed
//      atomic word stores — no locks and no "is telemetry on" branch.
//   2. Flight-recorder drop policy: rings OVERWRITE OLDEST. A crash dump
//      answers "what happened just before", so the newest events win and a
//      slow drain can never back-pressure the hot path. Overwritten events
//      are counted, never silently lost.
//   3. Crash-safe: dump_to_fd() touches only atomics, stack buffers and
//      write(2), so the SIGSEGV/SIGABRT/terminate hooks installed by
//      arm_crash_dump() can emit a parseable dump from a dying process.
//
// Ring layout: a fixed pool of `rings` rings, each `ring_capacity` (power of
// two) slots. A slot is 7 relaxed-atomic u64 words: six payload words
// (t_ns, a, b, c, d, meta) and one sequence word used as a per-slot
// publication flag — a writer claims index i via fetch_add on the ring head,
// stores 0 to the sequence (invalidating the slot for concurrent readers),
// writes the payload, then release-stores i+1. Readers accept a slot only if
// the sequence reads i+1 before AND after copying the payload, so torn
// (mid-overwrite) slots are detected and counted as drops. Threads map to
// rings by a process-wide thread ordinal; with more threads than rings the
// claim protocol degrades gracefully to multi-producer on a shared ring.
//
// All accesses to slot memory go through std::atomic, so the recorder is
// clean under ThreadSanitizer by construction, not by suppression.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace aegis::telemetry {

class FlightRecorder;

/// Wide-event kinds. The numeric values are part of the on-disk dump format
/// (version header below): append new kinds, never renumber.
enum class WideEventType : std::uint16_t {
  kNone = 0,
  kSpanBegin = 1,      // a=span id, b=arg, c=parent id, d=track; the
                       // stream is the span name
  kSpanEnd = 2,        // a=span id, b=0, c=0, d=track
  kMetricDelta = 3,    // a/b/c/d free-form (site-defined deltas)
  kAdmission = 4,      // a=outcome code, b=granularity, c=releases,
                       // d=epsilon_after bits (memcpy'd double)
  kPlanRotation = 5,   // a=slice, b=variant index, c=period, d=0
  kRngCheckpoint = 6,  // a=derived seed, b=stream index, c/d free-form
  kAlert = 7,          // a=alert kind, b=score bits (double), c/d free-form
  kHotExec = 8,        // a=execution count, b=superblock uid, c/d free-form
};

const char* to_string(WideEventType t) noexcept;

/// One decoded event, as produced by drain()/read_dump().
struct DrainedEvent {
  std::uint64_t t_ns = 0;  // caller-supplied clock (tick, virtual, ordinal)
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::uint64_t d = 0;
  std::uint32_t tenant = 0;
  std::uint16_t type = 0;    // WideEventType
  std::uint16_t stream = 0;  // registered stream id (names via streams())
  std::uint32_t ring = 0;    // which ring recorded it
  std::uint64_t seq = 0;     // ring-local claim index (monotone per ring)
};

/// Null-safe trivially-copyable record handle, the flight-recorder analog of
/// telemetry::Counter: resolve once at construction (slow path), record from
/// anywhere (wait-free, allocation-free). A default-constructed handle is a
/// no-op, so instrumented code never branches on "is a recorder attached".
class EventHandle {
 public:
  constexpr EventHandle() noexcept = default;
  constexpr EventHandle(FlightRecorder* recorder, WideEventType type,
                        std::uint16_t stream) noexcept
      : recorder_(recorder),
        type_(static_cast<std::uint16_t>(type)),
        stream_(stream) {}

  /// Records one wide event. `t_ns` is CALLER-supplied: hot paths stamp a
  /// local ordinal (no shared-clock cache traffic), service paths stamp the
  /// registry clock, virtual-clock sites stamp slice indices. The
  /// recorder never consults a clock itself, which keeps recording off the
  /// determinism/bit-identity critical path.
  void record(std::uint64_t t_ns, std::uint64_t a = 0, std::uint64_t b = 0,
              std::uint64_t c = 0, std::uint64_t d = 0,
              std::uint32_t tenant = 0) const noexcept;

  constexpr bool attached() const noexcept { return recorder_ != nullptr; }
  constexpr std::uint16_t stream() const noexcept { return stream_; }

 private:
  FlightRecorder* recorder_ = nullptr;
  std::uint16_t type_ = 0;
  std::uint16_t stream_ = 0;
};

struct RecorderConfig {
  /// Events per ring; rounded up to a power of two. The dump keeps the last
  /// `ring_capacity` events per ring (overwrite-oldest).
  std::size_t ring_capacity = 1024;
  /// Ring pool size. Threads beyond this share rings (still correct, just
  /// multi-producer). Rings are preallocated at construction; memory is
  /// rings * ring_capacity * 56 bytes.
  std::size_t rings = 32;
};

/// Binary dump, parsed form. `events` preserve file order (write_dump sorts
/// by (t_ns, ring, seq); crash dumps are per-ring claim order).
struct DumpDocument {
  std::uint32_t version = 0;
  std::uint64_t dropped = 0;
  std::vector<std::string> streams;
  std::vector<DrainedEvent> events;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(RecorderConfig config = {});
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// SLOW PATH (mutex + may allocate): resolves a named event stream to a
  /// handle. Idempotent per (name): the same name maps to one stream id.
  /// Must run at construction time, outside noalloc regions — enforced by
  /// the aegis-lint `telemetry-handle` rule.
  EventHandle event_handle(std::string_view name, WideEventType type);

  /// SLOW PATH convenience for cold call sites (tools, tests): resolves the
  /// stream by name on every call. Banned inside noalloc regions by the
  /// same lint rule.
  void record_named(std::string_view name, WideEventType type,
                    std::uint64_t t_ns, std::uint64_t a = 0,
                    std::uint64_t b = 0, std::uint64_t c = 0,
                    std::uint64_t d = 0, std::uint32_t tenant = 0);

  /// Wait-free, allocation-free record. Prefer EventHandle::record.
  void record_raw(std::uint16_t type, std::uint16_t stream, std::uint64_t t_ns,
                  std::uint64_t a, std::uint64_t b, std::uint64_t c,
                  std::uint64_t d, std::uint32_t tenant) noexcept;

  /// Coordinated drain: snapshots every ring (tolerating concurrent
  /// writers; torn slots count as drops) and merges them into one list
  /// sorted by (t_ns, ring, seq) — deterministic and seed-stable when the
  /// recording run was.
  std::vector<DrainedEvent> drain() const;

  /// Events lost to overwrite (ring wrap) plus torn slots skipped by the
  /// most recent drain/dump.
  std::uint64_t dropped() const noexcept;

  /// Registered stream names, id-ordered (id 0 is first).
  std::vector<std::string> streams() const;

  /// Resets every ring and the drop counters. NOT safe against concurrent
  /// writers; quiesce first (tests, between bench phases).
  void clear();

  /// Writes the sorted binary dump (drain() order) with the version header.
  void write_dump(std::ostream& os) const;

  /// Async-signal-safe dump: atomics + stack buffers + write(2) only.
  /// Events are emitted in per-ring claim order with an until-EOF count so
  /// no seek is needed. Returns false if any write failed.
  bool dump_to_fd(int fd) const noexcept;
  bool dump_to_file(const char* path) const noexcept;

  /// Installs process-wide crash hooks (SIGSEGV/SIGBUS/SIGILL/SIGFPE/
  /// SIGABRT + std::set_terminate) that dump THIS recorder to
  /// "<path_prefix>.<pid>.frd" before re-raising. The last recorder armed
  /// wins; arming replaces prior hooks. Path is composed once here so the
  /// signal handler never formats strings.
  void arm_crash_dump(const char* path_prefix);

  /// The recorder most recently armed (nullptr if none).
  static FlightRecorder* armed() noexcept;

  /// On-demand dump to the armed path (gate breach, shutdown, aegis_top
  /// request). No-op unless THIS recorder is the armed one; returns whether
  /// a dump was written.
  bool trigger_armed_dump() const noexcept;

  std::size_t ring_capacity() const noexcept { return capacity_; }
  std::size_t ring_count() const noexcept { return ring_count_; }

 private:
  struct Slot {
    // words[0..5] = t_ns, a, b, c, d, meta; meta packs
    // (type << 48) | (stream << 32) | tenant.
    std::atomic<std::uint64_t> words[6];
    std::atomic<std::uint64_t> seq{0};  // claim index + 1 once published
  };
  struct alignas(64) Ring {
    std::atomic<std::uint64_t> head{0};  // next claim index
    std::unique_ptr<Slot[]> slots;
  };

  /// Copies the live tail of `ring` into `out` (ring-local claim order).
  /// Returns the number of torn slots skipped.
  std::uint64_t snapshot_ring(std::uint32_t ring_index,
                              std::vector<DrainedEvent>& out) const;

  std::size_t capacity_ = 0;  // power of two
  std::uint64_t mask_ = 0;
  std::size_t ring_count_ = 0;
  std::unique_ptr<Ring[]> rings_;
  mutable std::atomic<std::uint64_t> torn_{0};

  // Registration slow path, the highest telemetry lock: it sits above the
  // metrics registry (52), and ScopedSpan takes it to resolve its stream.
  // aegis-lint: lock-level(53, noblock)
  mutable std::mutex mu_;
  std::vector<std::string> stream_names_;
  // Pre-rendered stream-name table (u16 length + bytes per name) so the
  // signal-context dump can emit names without formatting or allocating.
  // Fixed capacity; names past the limit fall back to "stream#<id>" in
  // viewers. published length is atomic so dump_to_fd reads a consistent
  // prefix.
  static constexpr std::size_t kNameTableBytes = 16 * 1024;
  std::unique_ptr<unsigned char[]> name_table_;
  std::atomic<std::uint32_t> name_table_len_{0};
  std::atomic<std::uint32_t> name_table_count_{0};
};

/// Parses a binary dump written by write_dump()/dump_to_fd(). Truncated
/// event streams parse to the events present (a crash may cut the tail);
/// a bad magic/version returns nullopt.
std::optional<DumpDocument> read_dump(std::istream& is);
std::optional<DumpDocument> read_dump_file(const char* path);

/// One span, paired from its begin and end events.
struct CompletedSpan {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = no parent
  std::uint64_t arg = 0;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;  // never before begin_ns
  std::uint32_t track = 0;
  std::uint16_t stream = 0;  // the span name (DumpDocument::streams)
  /// Positions of the two events in the list they were paired from.
  std::size_t begin_index = 0;
  std::size_t end_index = 0;
};

/// Pairs span begin and end events by id, in begin-event order. An end pairs
/// with the open begin of the same id and stream; a begin whose id is
/// already open, an end with no open begin, and a begin never ended (still
/// open, or its end overwritten) stay unpaired. An end stamped before its
/// begin is clamped to it.
std::vector<CompletedSpan> completed_spans(
    const std::vector<DrainedEvent>& events);

/// chrome://tracing conversion, in document order (ts in µs, pid 1):
///   * each paired span becomes a "ph":"X" event named by its stream, on
///     tid = track, at its begin event;
///   * each kAdmission event becomes a "ph":"C" sample on an
///     "epsilon tenant N" counter track;
///   * every other event, unpaired span events included, becomes a "ph":"i"
///     instant event (tid = ring) with its raw payload in args.
/// Any parsed document renders to valid JSON.
void write_recorder_trace_json(const DumpDocument& doc, std::ostream& os);

}  // namespace aegis::telemetry
