// Result-confirmation machinery (paper Section VI-E): decides whether a
// candidate gadget genuinely drives the event change, rejecting reset-side
// effects (C5) and inherited dirty state (C6).
//
// A real PMU reads all four programmed counters on every run, so one
// measurement serves every event of a group: measure_path and
// confirm_gadget summarize and judge each programmed register slot of the
// runner from the same executions.
#pragma once

#include <array>
#include <cstddef>

#include "fuzzer/gadget.hpp"
#include "isa/spec.hpp"
#include "pmu/event_database.hpp"
#include "sim/gadget_runner.hpp"

namespace aegis::fuzzer {

inline constexpr std::size_t kSlots = pmu::EventDatabase::kNumCounters;

struct ConfirmationParams {
  std::size_t repeats = 10;   // R
  double lambda1 = 0.2;
  double lambda2 = 10.0;
  // Unrolls are repetition counts — how many back-to-back copies of the
  // reset/trigger instruction the generated code contains — so they are
  // integral (a fractional instruction cannot be emitted).
  std::size_t reset_unroll = 2;
  std::size_t trigger_unroll = 32;
  double delta_threshold = 0.3;
};

/// One path's summary per register slot; slots the runner does not program
/// stay zero.
struct PathMeasurement {
  std::array<double, kSlots> median{};      // per-execution median change (v)
  std::array<double, kSlots> cumulative{};  // total over R executions (V)
};

/// Runs one path (reset only = cold, reset+trigger = hot) R times on the
/// runner and summarizes the per-execution deltas of every programmed slot.
/// The gadget's blocks are compiled from `spec` once per call.
PathMeasurement measure_path(sim::GadgetRunner& runner,
                             const isa::IsaSpecification& spec,
                             const Gadget& gadget, bool with_trigger,
                             const ConfirmationParams& params);

struct ConfirmationOutcome {
  SlotMask confirmed = 0;  // bit s: slot s passed every check
  PathMeasurement cold;    // v1 / V1
  PathMeasurement hot;     // v2 / V2
  bool confirmed_for(std::size_t slot) const noexcept {
    return has_slot(confirmed, slot);
  }
  double trigger_delta(std::size_t slot) const noexcept {
    return hot.median[slot] - cold.median[slot];
  }
};

/// The paper's repeated-trigger test, per programmed slot, from one cold
/// and one hot path:
///   V2 - V1 within (1 +- lambda1) * R * (v2 - v1)   and   V2 > lambda2 * V1.
ConfirmationOutcome confirm_gadget(sim::GadgetRunner& runner,
                                   const isa::IsaSpecification& spec,
                                   const Gadget& gadget,
                                   const ConfirmationParams& params);

}  // namespace aegis::fuzzer
