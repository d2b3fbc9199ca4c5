// Telemetry hub: one MetricsRegistry + FlightRecorder + SpanTracer sharing a
// clock.
//
// Ownership model:
//   * Library hot paths (GadgetRunner, CounterRegisterFile, NoiseInjector,
//     measure_path) record into Registry::global() — a process-wide instance
//     on the deterministic tick clock — so instrumentation works with zero
//     plumbing and zero behavioral effect.
//   * Service-layer objects accept an optional Registry* via their configs.
//     When null they create a PRIVATE registry, keeping per-instance stats
//     exact (tests construct several caches/services in one process).
//     Benches/daemons inject one shared Registry to get a unified trace.
//
// The clock stamps spans and admission decisions. Aegis bans wall-clock
// reads outside reporting-only sites (aegis-lint banned-clock), so the
// default is a tick: each read advances a per-registry counter by 1 µs, a
// deterministic ordinal with no wall-clock dependency. Tests pass a lambda
// over a variable they set; benches pass a steady-clock lambda.
#pragma once

#include <atomic>
#include <cstdint>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span_tracer.hpp"

namespace aegis::telemetry {

class Registry {
 public:
  /// Stamps with the registry's own tick.
  Registry();
  /// Stamps with `clock`, which must be safe to call from any thread that
  /// records telemetry.
  explicit Registry(Clock clock);
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  MetricsRegistry& metrics() noexcept { return metrics_; }
  const MetricsRegistry& metrics() const noexcept { return metrics_; }
  SpanTracer& spans() noexcept { return spans_; }
  FlightRecorder& recorder() noexcept { return recorder_; }
  const FlightRecorder& recorder() const noexcept { return recorder_; }

  std::uint64_t now_ns() const { return clock_(); }

  /// Process-wide registry used by components with no injection point.
  static Registry& global();

 private:
  std::atomic<std::uint64_t> ticks_{0};
  Clock clock_;
  MetricsRegistry metrics_;
  FlightRecorder recorder_;
  SpanTracer spans_;
};

/// `reg ? *reg : Registry::global()` — the idiom for optional config plumbing.
inline Registry& resolve(Registry* reg) {
  return reg != nullptr ? *reg : Registry::global();
}

}  // namespace aegis::telemetry
