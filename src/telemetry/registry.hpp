// Telemetry hub: one FlightRecorder + SpanTracer sharing a clock. The
// flight recorder is the only telemetry pipeline; components that keep
// counts (cache hits, session tallies, alerts) keep them as plain members
// and report them through their own stats().
//
// Ownership model:
//   * Library code with no injection point (the obfuscator's plan.rotation
//     and obfuscator.rng checkpoints, and the profiler, fuzzer and seceval
//     stage spans) records into Registry::global() — a process-wide
//     instance on the deterministic tick clock — so instrumentation works
//     with zero plumbing and zero behavioral effect. The per-gadget and
//     per-slice paths (GadgetRunner::execute_once,
//     CounterRegisterFile::accumulate, NoiseInjector) record nothing.
//   * Service-layer objects accept an optional Registry* via their configs
//     and resolve a null one to Registry::global() (resolve() below), so a
//     service built without one still lands its admission decisions in
//     AEGIS_FR_DUMP crash dumps. Benches and daemons inject one shared
//     Registry to get a unified trace of their own.
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

  SpanTracer& spans() noexcept { return spans_; }
  FlightRecorder& recorder() noexcept { return recorder_; }
  const FlightRecorder& recorder() const noexcept { return recorder_; }

  std::uint64_t now_ns() const { return clock_(); }

  /// Process-wide registry used by components with no injection point.
  static Registry& global();

 private:
  std::atomic<std::uint64_t> ticks_{0};
  Clock clock_;
  FlightRecorder recorder_;
  SpanTracer spans_;
};

/// `reg ? *reg : Registry::global()` — the idiom for optional config plumbing.
inline Registry& resolve(Registry* reg) {
  return reg != nullptr ? *reg : Registry::global();
}

}  // namespace aegis::telemetry
