// Phase spans as flight-recorder events.
//
// A span is a named interval with a parent link, a track (rendered as a
// thread row in chrome://tracing) and one free-form integer argument. It is
// recorded as two wide events in the registry's flight recorder — the span
// name is the event stream, begin and end share the span id — and nothing
// else: no heap copy, no lock. Retention is therefore bounded by the
// recorder's rings, and `completed_spans` (flight_recorder.hpp) pairs the
// drained events back into intervals.
//
// Timestamps come from the registry clock, so traces are deterministic under
// the default tick clock and real-time under a steady-clock lambda.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string_view>

#include "telemetry/flight_recorder.hpp"

namespace aegis::telemetry {

/// A monotonic nanosecond reading; the registry stamps telemetry with it.
using Clock = std::function<std::uint64_t()>;

/// The pre-resolved begin and end handles of one span name.
struct SpanStream {
  EventHandle begin;  // a=span id, b=arg, c=parent id, d=track
  EventHandle end;    // a=span id, d=track
};

class SpanTracer {
 public:
  /// Both must outlive the tracer (Registry owns all three).
  SpanTracer(FlightRecorder& recorder, const Clock& clock)
      : recorder_(&recorder), clock_(&clock) {}
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  /// SLOW PATH (recorder registration mutex): resolves `name` to its stream.
  /// Resolve once, outside any per-slice loop.
  SpanStream stream(std::string_view name);

  /// Fresh span id, never 0.
  std::uint64_t next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t now_ns() const { return (*clock_)(); }

  /// Records an already-timed interval (e.g. stamped from the simulator's
  /// virtual clock) without reading the clock: two wait-free handle
  /// records. Returns the span id.
  std::uint64_t record_complete(const SpanStream& stream,
                                std::uint64_t begin_ns, std::uint64_t end_ns,
                                std::uint32_t track = 0, std::uint64_t arg = 0,
                                std::uint64_t parent = 0) noexcept;

 private:
  FlightRecorder* recorder_;
  const Clock* clock_;
  std::atomic<std::uint64_t> next_id_{1};
};

/// RAII span. Its parent is the innermost enclosing ScopedSpan of the SAME
/// tracer on this thread, so a span on one registry never adopts a span of
/// another registry as its parent.
class ScopedSpan {
 public:
  ScopedSpan(SpanTracer& tracer, std::string_view name, std::uint32_t track = 0,
             std::uint64_t arg = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const noexcept { return id_; }

 private:
  SpanTracer* tracer_;
  EventHandle end_;
  std::uint64_t id_;
  std::uint32_t track_;
  /// The span that was innermost on this thread when this one opened; the
  /// links form an allocation-free per-thread stack.
  ScopedSpan* enclosing_;
};

}  // namespace aegis::telemetry
