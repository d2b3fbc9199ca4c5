#include "probes.hpp"

namespace e2ebench {

PinnedToCpu::PinnedToCpu(std::size_t index) {
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  const int allowed = CPU_COUNT(&saved_);
  if (allowed <= 1) return;
  std::size_t skip = index % static_cast<std::size_t>(allowed);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_)) continue;
    if (skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
    return;
  }
}

PinnedToCpu::~PinnedToCpu() {
  if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

aegis::sim::BlockSource TimedWorkload::visit(std::uint64_t visit_seed) const {
  const auto start = Clock::now();
  aegis::sim::BlockSource source = inner_->visit(visit_seed);
  probe_->gen.add(Clock::now() - start, 0);
  probe_->visits.fetch_add(1, std::memory_order_relaxed);
  return [source = std::move(source), probe = probe_](std::size_t t) {
    const auto slice_start = Clock::now();
    std::vector<aegis::sim::InstructionBlock> blocks = source(t);
    probe->gen.add(Clock::now() - slice_start, blocks.size());
    probe->slices.fetch_add(1, std::memory_order_relaxed);
    return blocks;
  };
}

std::vector<std::unique_ptr<aegis::workload::Workload>> WorkloadProbe::wrap(
    const std::vector<std::unique_ptr<aegis::workload::Workload>>& secrets) {
  std::vector<std::unique_ptr<aegis::workload::Workload>> wrapped;
  wrapped.reserve(secrets.size());
  for (const auto& secret : secrets) {
    wrapped.push_back(std::make_unique<TimedWorkload>(*secret, *this));
  }
  return wrapped;
}

aegis::attack::AgentFactory timed_agents(aegis::attack::AgentFactory inner,
                                         LayerMeter& meter) {
  return [inner = std::move(inner), meter = &meter]() -> aegis::sim::SliceAgent {
    aegis::sim::SliceAgent agent = inner();
    return [agent = std::move(agent), meter](aegis::sim::VirtualMachine& vm,
                                             std::size_t t) {
      const auto start = Clock::now();
      agent(vm, t);
      meter->add(Clock::now() - start, 1);
    };
  };
}

}  // namespace e2ebench
