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
// The steady-state measurement loop is allocation-free and runs fused
// superblocks: a whole (reset sequence, trigger sequence) uid span is
// compiled once into a cached sequence of sim::CompiledBlocks (every
// state-independent execution term prehoisted, see sim/executor.hpp), the
// static prolog/epilog are compiled at namespace scope, and RDPMC reads go
// through slot indices resolved at program() time. Compiled blocks live in
// a stable-address util::Arena so an unroll change rebuilds them in place
// without growing memory. before/delta live in fixed member scratch sized
// to the 4-register hardware limit (see DESIGN.md "Superblock
// fusion in GadgetRunner"; pinned by the instrumented-allocator test in
// tests/hotpath_test.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "isa/spec.hpp"
#include "pmu/counter_file.hpp"
#include "sim/executor.hpp"
#include "sim/virtual_machine.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "util/arena.hpp"

namespace aegis::sim {

class GadgetRunner {
 public:
  GadgetRunner(const pmu::EventDatabase& db, const isa::IsaSpecification& spec,
               std::uint64_t seed);

  /// Programs the events measured by subsequent executions (<= 4, the
  /// hardware register limit) and resolves the RDPMC slot index of each
  /// programmed event so the measurement loop reads raw slots directly.
  void program(std::vector<std::uint32_t> event_ids);

  /// Executes the instruction sequence (each uid repeated `unroll` times,
  /// uids in order: reset sequence then trigger sequence) once inside the
  /// prolog/epilog + serialization harness, and returns the per-event HPC
  /// count deltas across the measured window. The returned span aliases
  /// member scratch: it is valid until the next execute_once call and holds
  /// one delta per programmed event.
  std::span<const double> execute_once(
      std::span<const std::uint32_t> variant_uids, double unroll = 8.0);

  /// Clears cache/predictor state (a fresh process image). Tests use this;
  /// the fuzzer intentionally does NOT between gadgets. The superblock
  /// cache survives: compiled blocks depend only on the immutable ISA spec,
  /// never on machine state.
  void reset_machine_state();

  const std::vector<std::uint32_t>& programmed() const noexcept {
    return counters_.programmed();
  }

 private:
  /// One fused, precompiled gadget sequence: the CompiledBlock per uid (in
  /// sequence order) plus the inputs it was built from. Block storage is
  /// arena-backed so the pointers stay valid across cache rehashes and an
  /// unroll change overwrites the pointed-to objects in place.
  struct Superblock {
    std::vector<std::uint32_t> uids;
    double unroll = -1.0;  // never a valid repetition count
    std::vector<CompiledBlock*> blocks;
  };

  /// Returns the cached superblock for (variant_uids, unroll), building it
  /// on first use. Keyed by FNV-1a over the uid bytes with the stored uids
  /// verified against the request, so a hash collision rebuilds instead of
  /// executing the wrong gadget. Sequences containing an illegal variant
  /// are never cached and throw on every call, exactly like the uncached
  /// path. A two-entry MRU keeps the fuzzer's steady alternation between
  /// its reset and trigger sequences off the hash probe entirely.
  const Superblock& superblock(std::span<const std::uint32_t> variant_uids,
                               double unroll);
  void rebuild(Superblock& sb, std::span<const std::uint32_t> variant_uids,
               double unroll);

  const isa::IsaSpecification* spec_;
  VmConfig config_;
  util::Rng rng_;
  MicroArchState uarch_;
  pmu::CounterRegisterFile counters_;
  util::Arena<CompiledBlock> arena_;
  std::unordered_map<std::uint64_t, Superblock> superblocks_;
  Superblock* mru0_ = nullptr;  // most recently used
  Superblock* mru1_ = nullptr;  // second most recently used
  /// Slot index of each programmed event (first occurrence wins for
  /// duplicates, matching CounterRegisterFile::read_raw's lookup).
  std::array<std::size_t, pmu::EventDatabase::kNumCounters> slot_idx_{};
  std::array<double, pmu::EventDatabase::kNumCounters> before_{};
  std::array<double, pmu::EventDatabase::kNumCounters> delta_{};
  /// Resolved once at construction (telemetry-handle rule); incrementing in
  /// execute_once stays allocation-free.
  telemetry::Counter executions_;
  /// Flight-recorder hot-path record point, also resolved at construction.
  /// Sampled 1-in-8 executions and stamped with a LOCAL ordinal (no shared
  /// clock traffic).
  telemetry::EventHandle exec_event_;
  std::uint64_t exec_count_ = 0;
};

}  // namespace aegis::sim
