#include "fuzzer/confirmation.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "telemetry/registry.hpp"
#include "util/stats.hpp"

namespace aegis::fuzzer {

namespace {

/// Handle resolved outside the noalloc region (telemetry-handle rule): the
/// by-name lookup allocates, so it happens once behind a function-local
/// static; measure_path itself only bumps the lock-free counter.
// aegis-lint: amortized-alloc(function-local static: the allocating by-name lookup runs once per process)
const telemetry::Counter& path_measurements_counter() {
  static const telemetry::Counter counter =
      telemetry::Registry::global().metrics().counter(
          "aegis_fuzzer_path_measurements_total");
  return counter;
}

}  // namespace

// aegis-lint: noalloc
PathMeasurement measure_path(sim::GadgetRunner& runner, const Gadget& gadget,
                             bool with_trigger, const ConfirmationParams& params) {
  // Per-repeat deltas live in thread-local scratch, slot-major
  // (deltas[s * R + r]): confirmation runs this for every candidate gadget,
  // and per-call vectors dominated its profile.
  // aegis-lint: alloc-ok(thread_local: constructed once per thread, reused)
  thread_local std::vector<double> deltas;
  path_measurements_counter().inc();
  const std::size_t slots = runner.programmed().size();
  const std::size_t repeats = params.repeats;
  // aegis-lint: alloc-ok(thread_local scratch; capacity retained across calls)
  deltas.resize(slots * repeats);
  // One unmeasured warm-up execution: the first run of a path carries a
  // cold-cache/predictor transient that would otherwise break the
  // cumulative-vs-median linearity check for genuine gadgets.
  for (std::size_t r = 0; r < repeats + 1; ++r) {
    if (with_trigger) {
      // Reset executes lightly, trigger is unrolled: the measured window is
      // dominated by the trigger's effect when the gadget is genuine.
      const std::array<std::uint32_t, 2> seq = {gadget.reset_uid,
                                                gadget.trigger_uid};
      // Two sub-windows with different unrolls; sum the deltas. The first
      // span aliases runner scratch, so copy it before the second call
      // overwrites it.
      std::array<double, kSlots> reset_delta{};
      const std::span<const double> a = runner.execute_once(
          std::span(seq).first(1), static_cast<double>(params.reset_unroll));
      std::copy(a.begin(), a.end(), reset_delta.begin());
      const std::span<const double> b = runner.execute_once(
          std::span(seq).last(1), static_cast<double>(params.trigger_unroll));
      if (r == 0) continue;
      for (std::size_t s = 0; s < slots; ++s) {
        deltas[s * repeats + r - 1] = reset_delta[s] + b[s];
      }
    } else {
      const std::array<std::uint32_t, 1> seq = {gadget.reset_uid};
      const std::span<const double> d =
          runner.execute_once(seq, static_cast<double>(params.reset_unroll));
      if (r == 0) continue;
      for (std::size_t s = 0; s < slots; ++s) {
        deltas[s * repeats + r - 1] = d[s];
      }
    }
  }
  PathMeasurement m;
  for (std::size_t s = 0; s < slots; ++s) {
    const std::span<double> slot =
        std::span(deltas).subspan(s * repeats, repeats);
    for (double v : slot) m.cumulative[s] += v;
    // In-place median: deltas is scratch, and the copying median() would be
    // this function's one remaining hot-path allocation.
    m.median[s] = util::median_inplace(slot);
  }
  return m;
}

ConfirmationOutcome confirm_gadget(sim::GadgetRunner& runner, const Gadget& gadget,
                                   const ConfirmationParams& params) {
  ConfirmationOutcome outcome;
  outcome.cold = measure_path(runner, gadget, false, params);
  outcome.hot = measure_path(runner, gadget, true, params);

  const double R = static_cast<double>(params.repeats);
  for (std::size_t s = 0; s < runner.programmed().size(); ++s) {
    const double v_diff = outcome.hot.median[s] - outcome.cold.median[s];
    const double V_diff =
        outcome.hot.cumulative[s] - outcome.cold.cumulative[s];

    // The trigger must produce a real, repeatable change...
    if (v_diff < params.delta_threshold) continue;
    // ...that accumulates linearly over repetitions, i.e. the reset
    // sequence genuinely restores S0 each round (C6 rejection):
    //    V2 - V1 = (1 - lambda1) R (v2 - v1),  lambda1 in [-0.2, 0.2].
    const double expected = R * v_diff;
    if (V_diff < (1.0 - params.lambda1) * expected ||
        V_diff > (1.0 + params.lambda1) * expected) {
      continue;
    }
    // ...and must dominate any side effect of the reset itself (C5):
    //    V2 > lambda2 * V1. A tiny floor keeps the test meaningful for
    //    events where the cold path counts essentially zero.
    const double v1_floor = std::max(outcome.cold.cumulative[s], 0.02);
    if (outcome.hot.cumulative[s] <= params.lambda2 * v1_floor) continue;

    outcome.confirmed |= static_cast<SlotMask>(1U << s);
  }
  return outcome;
}

}  // namespace aegis::fuzzer
