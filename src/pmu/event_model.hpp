// PMU event model: what an HPC event *is* in this reproduction.
//
// Real HPC events count micro-architectural occurrences (retired uops,
// cache refills, dispatched loads, ...). The simulator represents each
// event as a linear response over an ExecutionStats record that the vCPU
// produces while executing instruction blocks, plus noise terms modelling
// the paper's C2 non-determinism (interrupts, kernel interaction).
//
// IMPORTANT: the response vectors are the simulation's hidden ground truth.
// The profiler, fuzzer and attacks never read them — they observe events
// only through CounterRegisterFile reads, exactly like the paper's tooling
// observes real HPCs through perf_event_open / RDPMC.
#pragma once

#include <cstdint>
#include <string>

#include "isa/instruction_class.hpp"

namespace aegis::pmu {

/// perf-style event classification (paper Table II).
enum class EventType : unsigned char {
  kHardware = 0,   // H  — generic hardware events (cycles, instructions)
  kSoftware,       // S  — kernel software events (context switches, faults)
  kHwCache,        // HC — generic cache events (L1D read/write/miss, ...)
  kTracepoint,     // T  — kernel static tracepoints (syscalls, sched, ...)
  kRawCpu,         // R  — vendor-specific raw PMU events
  kOther,          // O  — breakpoints, dynamic probes, ...
  kCount
};

inline constexpr std::size_t kNumEventTypes =
    static_cast<std::size_t>(EventType::kCount);

std::string_view to_string(EventType t) noexcept;
/// One-letter code used by Table II ("H", "S", "HC", "T", "R", "O").
std::string_view short_code(EventType t) noexcept;

/// Aggregated micro-architectural activity of one executed instruction
/// block (or one monitoring slice). Produced by the vCPU, consumed by
/// event responses.
struct ExecutionStats {
  isa::ClassVector<double> class_counts;  // retired instructions per class
  double uops = 0;                        // retired micro-ops
  double l1_misses = 0;
  double llc_misses = 0;                  // refills from memory/system
  double l1_writes = 0;
  double branch_mispredicts = 0;
  double mem_reads = 0;                   // load accesses
  double mem_writes = 0;                  // store accesses
  double interrupts = 0;                  // external interrupts delivered
  double cycles = 0;

  ExecutionStats& operator+=(const ExecutionStats& o) noexcept;
};

/// Linear response of an event to ExecutionStats, plus noise coefficients.
struct EventResponse {
  isa::ClassVector<float> class_weight;   // counts per retired instr of class
  float per_uop = 0.0f;
  float per_l1_miss = 0.0f;
  float per_llc_miss = 0.0f;
  float per_l1_write = 0.0f;
  float per_branch_miss = 0.0f;
  float per_mem_read = 0.0f;
  float per_mem_write = 0.0f;
  float per_cycle = 0.0f;                 // e.g. the CYCLES event
  float per_interrupt = 0.0f;             // interrupt-coupled noise
  float noise_rel = 0.0f;                 // relative measurement noise
  float noise_abs = 0.0f;                 // absolute noise floor per read
  /// Host-side background rate per slice for events that count host (not
  /// guest) activity; what makes non-guest-visible events non-constant.
  float host_background = 0.0f;

  /// Expected (noise-free) count contribution of the given stats record.
  double expected_count(const ExecutionStats& s) const noexcept;

  /// True if any guest-activity coefficient is non-zero, i.e. the event can
  /// reflect what runs inside the VM (what warm-up profiling discovers).
  ///
  /// Invariant: per_interrupt is deliberately NOT consulted. Interrupt
  /// delivery is scheduled by the host (the paper's C2 non-determinism),
  /// so an event coupled only to interrupts carries no information about
  /// what the guest executes — counting it as guest-visible would let
  /// warm-up profiling keep pure-noise events. Pinned by
  /// pmu_test.GuestVisibleIgnoresInterruptCoupling.
  bool guest_visible() const noexcept;
};

/// A monitorable HPC event.
struct EventDescriptor {
  std::uint32_t id = 0;
  std::string name;
  EventType type = EventType::kRawCpu;
  EventResponse response;
};

}  // namespace aegis::pmu
