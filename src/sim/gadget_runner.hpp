// Fuzzing execution environment (paper Section VI-D).
//
// Reproduces the paper's measurement discipline for gadget fuzzing:
//   * the process is pinned to an isolated core (isolcpus) -> near-zero
//     interrupt rate, but not exactly zero;
//   * generated code runs between a prolog and epilog that save state and
//     point all memory operands at one pre-allocated writable page
//     (kScratchRegion);
//   * serializing instructions (CPUID) fence the measured window;
//   * HPC values are read with RDPMC before and after the gadget.
// Micro-architectural state deliberately persists across measurements —
// gadgets fuzzed back-to-back inherit each other's cache dirt (C6), which
// Event Fuzzer's confirmation stage has to detect and reject.
//
// The runner executes blocks its caller compiled: compile_gadget turns one
// ISA variant into a sim::CompiledBlock (every state-independent execution
// term prehoisted, see sim/executor.hpp), and the caller holds those blocks
// for as long as it measures them. The static prolog/epilog are compiled at
// namespace scope, RDPMC reads go through slot indices resolved at
// program() time, and before/delta live in fixed member scratch sized to
// the 4-register hardware limit, so execute_once allocates nothing on any
// call (see DESIGN.md "Zero-allocation measurement loop"; pinned by the
// instrumented-allocator test in tests/hotpath_test.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "isa/spec.hpp"
#include "pmu/counter_file.hpp"
#include "sim/executor.hpp"
#include "sim/virtual_machine.hpp"

namespace aegis::sim {

/// Compiles `unroll` back-to-back copies of variant `uid`, with its memory
/// operands pointed at the gadget data page. Throws std::invalid_argument
/// for a variant that faults (#UD / #GP), before anything runs.
CompiledBlock compile_gadget(const isa::IsaSpecification& spec,
                             std::uint32_t uid, double unroll);

class GadgetRunner {
 public:
  GadgetRunner(const pmu::EventDatabase& db, std::uint64_t seed);

  /// Programs the events measured by subsequent executions (<= 4, the
  /// hardware register limit) and resolves the RDPMC slot index of each
  /// programmed event so the measurement loop reads raw slots directly.
  void program(std::vector<std::uint32_t> event_ids);

  /// Executes `blocks` in order (typically the reset block, then the
  /// trigger block) once inside the prolog/epilog + serialization harness,
  /// and returns the per-event HPC count deltas across the measured
  /// window. The returned span aliases member scratch: it is valid until
  /// the next execute_once call and holds one delta per programmed event.
  std::span<const double> execute_once(std::span<const CompiledBlock> blocks);

  /// Clears cache/predictor state (a fresh process image). Tests use this;
  /// the fuzzer intentionally does NOT between gadgets.
  void reset_machine_state();

  const std::vector<std::uint32_t>& programmed() const noexcept {
    return counters_.programmed();
  }

 private:
  VmConfig config_;
  util::Rng rng_;
  MicroArchState uarch_;
  pmu::CounterRegisterFile counters_;
  /// Slot index of each programmed event (a duplicate id reads the slot of
  /// its first occurrence).
  std::array<std::size_t, pmu::EventDatabase::kNumCounters> slot_idx_{};
  std::array<double, pmu::EventDatabase::kNumCounters> before_{};
  std::array<double, pmu::EventDatabase::kNumCounters> delta_{};
};

}  // namespace aegis::sim
