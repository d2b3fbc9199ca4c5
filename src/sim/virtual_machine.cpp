#include "sim/virtual_machine.hpp"

#include <cmath>

namespace aegis::sim {

VirtualMachine::VirtualMachine(VmConfig config, std::uint64_t seed)
    : config_(config),
      rng_(seed),
      interrupt_limit_(std::exp(-config_.interrupt_rate)) {}

void VirtualMachine::submit(const InstructionBlock& block) {
  queue_.push_back(block);
}

void VirtualMachine::submit(std::vector<InstructionBlock>&& blocks) {
  if (head_ < queue_.size()) {
    queue_.insert(queue_.end(), blocks.begin(), blocks.end());
    return;
  }
  // Drained: nothing is pending, so the caller's buffer becomes the queue
  // and the old one goes back with `blocks`.
  queue_.swap(blocks);
  head_ = 0;
}

// aegis-lint: noalloc
// aegis-rng: stream(virtual-machine-run-slice)
pmu::ExecutionStats VirtualMachine::run_slice() {
  pmu::ExecutionStats slice;
  double budget = config_.slice_budget_cycles;

  // External interrupts: delivered regardless of guest activity; they
  // consume cycles and couple into interrupt-sensitive events.
  const std::uint64_t irqs =
      rng_.poisson(config_.interrupt_rate, interrupt_limit_);
  slice.interrupts = static_cast<double>(irqs);
  const double irq_cycles = static_cast<double>(irqs) * config_.interrupt_cycles;
  slice.cycles += irq_cycles;
  slice.uops += static_cast<double>(irqs) * config_.interrupt_uops;
  budget -= irq_cycles;

  // Forward-progress guarantee: at least one queued block executes per
  // slice even if interrupts (or a pathological configuration) consumed
  // the whole budget — a scheduled task is never starved forever.
  bool first = true;
  while (head_ < queue_.size() && (first || budget > 0.0)) {
    first = false;
    const pmu::ExecutionStats stats =
        execute_block(queue_[head_], uarch_, config_.cost);
    ++head_;
    slice += stats;
    budget -= stats.cycles;
  }
  // Drop the consumed prefix once it outweighs the pending tail (a drained
  // queue simply resets). The tail that moves is no longer than the prefix
  // it replaces, so compaction costs O(1) per block amortized.
  if (head_ > 0 && 2 * head_ >= queue_.size()) {
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }

  ++slice_count_;
  total_busy_cycles_ += slice.cycles;
  last_slice_stats_ = slice;
  return slice;
}

double VirtualMachine::cpu_usage() const noexcept {
  if (slice_count_ == 0) return 0.0;
  const double capacity =
      static_cast<double>(slice_count_) * config_.slice_budget_cycles;
  const double usage = total_busy_cycles_ / capacity;
  return usage > 1.0 ? 1.0 : usage;
}

}  // namespace aegis::sim
