// Discrete-time virtual machine model.
//
// The VM executes queued instruction blocks on one pinned vCPU in fixed
// wall-clock slices (1 ms of guest time ~ a few million cycles). Work that
// does not fit a slice carries over — this is what turns injected noise
// instructions into measurable execution-latency and CPU-usage overhead
// (Fig. 10). External interrupts arrive per slice and perturb both cycle
// counts and interrupt-coupled HPC events (the paper's C2 noise).
#pragma once

#include <cstdint>
#include <vector>

#include "pmu/event_model.hpp"
#include "sim/executor.hpp"
#include "sim/instruction_block.hpp"
#include "sim/uarch_state.hpp"
#include "util/rng.hpp"

namespace aegis::sim {

struct VmConfig {
  double slice_budget_cycles = 3.0e6;  // 1 ms at 3 GHz
  double interrupt_rate = 1.2;         // expected interrupts per slice
  double interrupt_cycles = 2500.0;    // ISR cost per interrupt
  double interrupt_uops = 900.0;
  CostModel cost;
};

class VirtualMachine {
 public:
  VirtualMachine(VmConfig config, std::uint64_t seed);

  /// Queues a block for execution on the vCPU.
  void submit(const InstructionBlock& block);

  /// Queues `blocks` in order, as if each were submitted in turn. Takes a
  /// vector the caller gives up (a BlockSource's per-slice result): a
  /// drained queue adopts its buffer instead of copying the blocks.
  void submit(std::vector<InstructionBlock>&& blocks);

  /// Runs one monitoring slice: executes queued blocks until the cycle
  /// budget is exhausted (unfinished work stays queued), delivers external
  /// interrupts, and returns the slice's aggregate activity.
  pmu::ExecutionStats run_slice();

  /// True while queued work remains (used to measure completion latency).
  bool pending() const noexcept { return head_ < queue_.size(); }

  MicroArchState& uarch() noexcept { return uarch_; }
  const VmConfig& config() const noexcept { return config_; }

  /// Activity of the most recent slice. In-guest software (the Event
  /// Obfuscator's kernel module) reads its own HPC values via RDPMC; this
  /// is the simulator's equivalent of that in-guest view.
  const pmu::ExecutionStats& last_slice_stats() const noexcept {
    return last_slice_stats_;
  }

  /// Cumulative accounting since construction.
  std::uint64_t slices_run() const noexcept { return slices_run_; }
  double total_busy_cycles() const noexcept { return total_busy_cycles_; }
  /// Busy fraction = busy cycles / slice capacity (the `top` CPU-usage view
  /// the paper's host measures every 0.2 s).
  double cpu_usage() const noexcept;

 private:
  VmConfig config_;
  util::Rng rng_;
  /// exp(-interrupt_rate), the Poisson stopping limit of every slice's
  /// interrupt draw (the rate is fixed at construction).
  double interrupt_limit_;
  MicroArchState uarch_;
  /// FIFO of pending blocks: queue_[head_..] are still to run. run_slice
  /// executes them in place and drops the consumed prefix once it is at
  /// least half the vector (always when the queue drains), so the buffer
  /// keeps its capacity and run_slice itself never allocates.
  std::vector<InstructionBlock> queue_;
  std::size_t head_ = 0;
  pmu::ExecutionStats last_slice_stats_;
  std::uint64_t slices_run_ = 0;
  double total_busy_cycles_ = 0.0;
};

}  // namespace aegis::sim
