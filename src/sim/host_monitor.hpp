// Host-side HPC sampling (the attacker's and the profiler's viewpoint).
//
// The malicious hypervisor reads the HPC registers mapped to a victim vCPU
// every sampling interval (1 ms in the paper), producing a per-event
// time series of count deltas. HostMonitor drives a VirtualMachine for T
// slices, feeding it workload blocks and letting an optional in-guest agent
// (the Event Obfuscator) inject blocks first, then records the per-slice
// counter deltas — exactly the 4 x T tensors the paper's attacks train on.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "pmu/counter_file.hpp"
#include "sim/cache_probe.hpp"
#include "sim/virtual_machine.hpp"

namespace aegis::sim {

/// Supplies the guest workload's blocks for slice t (empty = idle).
using BlockSource = std::function<std::vector<InstructionBlock>(std::size_t)>;

/// In-guest agent hook, invoked before each slice runs. The Event
/// Obfuscator implements this to inject noise gadgets into the execution
/// flow; the hypervisor cannot tell agent blocks from workload blocks.
using SliceAgent = std::function<void(VirtualMachine&, std::size_t)>;

/// Attacker-controlled slice boundaries (SEV-Step-style single stepping):
/// before recording sample s, the planner is shown the previously recorded
/// per-event delta (empty for s = 0) and returns how many base scheduling
/// slices to coalesce into the next sample (clamped to >= 1). The victim
/// still executes base slices — only the hypervisor's read cadence changes,
/// which is exactly the attacker's power: interrupt-driven stepping picks
/// WHERE the counter reads land instead of passively consuming 1 ms windows.
using SlicePlanner =
    std::function<std::size_t(std::size_t, const std::vector<double>&)>;

struct MonitorResult {
  /// samples[t][e] = count delta of programmed event e during slice t.
  std::vector<std::vector<double>> samples;
};

class HostMonitor {
 public:
  explicit HostMonitor(const pmu::EventDatabase& db, std::uint64_t seed);

  /// Monitors `vm` for `slices` sampling intervals while it executes blocks
  /// from `source`. Returns per-slice deltas for `event_ids` (any number;
  /// more than 4 triggers counter multiplexing like real perf). The same
  /// as monitor_stepped with a null planner: one sample per base slice.
  MonitorResult monitor(VirtualMachine& vm, const BlockSource& source,
                        const std::vector<std::uint32_t>& event_ids,
                        std::size_t slices, const SliceAgent& agent = nullptr);

  /// Monitors `vm` for `base_slices` scheduling intervals, but lets
  /// `planner` choose the sampling boundaries: each recorded sample covers
  /// the planner's chosen number of consecutive base slices (trailing base
  /// slices past the budget are truncated). A null planner means a step of
  /// one base slice, which is monitor(). The agent, when present, still
  /// fires once per BASE slice — defense cadence is the guest's, not the
  /// attacker's.
  MonitorResult monitor_stepped(VirtualMachine& vm, const BlockSource& source,
                                const std::vector<std::uint32_t>& event_ids,
                                std::size_t base_slices,
                                const SlicePlanner& planner,
                                const SliceAgent& agent = nullptr);

  /// Cache-occupancy channel: instead of HPC registers, a co-resident probe
  /// sweeps its buffer once per slice and records its own miss count
  /// (samples[t] = {probe misses at t}). Used by the future-work extension
  /// bench; the probe shares the victim's micro-architectural state.
  MonitorResult monitor_occupancy(VirtualMachine& vm, const BlockSource& source,
                                  CacheProbe& probe, std::size_t slices,
                                  const SliceAgent& agent = nullptr);

 private:
  const pmu::EventDatabase* db_;
  util::Rng rng_;
};

}  // namespace aegis::sim
