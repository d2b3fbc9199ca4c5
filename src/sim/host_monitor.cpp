#include "sim/host_monitor.hpp"

#include <cmath>

namespace aegis::sim {

namespace {

/// Per-event count delta between two cumulative reads, clamped at zero
/// (multiplex rescaling can make a scaled read dip below the previous one).
std::vector<double> clamped_delta(const std::vector<double>& now,
                                  const std::vector<double>& prev) {
  std::vector<double> delta(now.size());
  for (std::size_t e = 0; e < now.size(); ++e) {
    delta[e] = now[e] - prev[e];
    if (delta[e] < 0.0) delta[e] = 0.0;
  }
  return delta;
}

}  // namespace

HostMonitor::HostMonitor(const pmu::EventDatabase& db, std::uint64_t seed)
    : db_(&db), rng_(seed) {}

// aegis-rng: stream(host-monitor-monitor)
MonitorResult HostMonitor::monitor(VirtualMachine& vm, const BlockSource& source,
                                   const std::vector<std::uint32_t>& event_ids,
                                   std::size_t slices, const SliceAgent& agent) {
  pmu::CounterRegisterFile counters(*db_, rng_.next_u64());
  counters.program(event_ids);

  MonitorResult result;
  result.samples.reserve(slices);
  // Cumulative reads of the previous and current slice; swapped, never
  // reallocated. Each slice allocates only the delta row it returns.
  std::vector<double> prev(event_ids.size(), 0.0);
  std::vector<double> now(event_ids.size());
  const double busy_before = vm.total_busy_cycles();

  for (std::size_t t = 0; t < slices; ++t) {
    if (agent) agent(vm, t);
    if (source) vm.submit(source(t));
    counters.tick(vm.run_slice());
    counters.read_all(now);
    result.samples.push_back(clamped_delta(now, prev));
    prev.swap(now);
  }
  result.slices = slices;
  result.busy_cycles = vm.total_busy_cycles() - busy_before;
  return result;
}

// aegis-rng: stream(host-monitor-monitor-stepped)
MonitorResult HostMonitor::monitor_stepped(
    VirtualMachine& vm, const BlockSource& source,
    const std::vector<std::uint32_t>& event_ids, std::size_t base_slices,
    const SlicePlanner& planner, const SliceAgent& agent) {
  if (!planner) return monitor(vm, source, event_ids, base_slices, agent);

  pmu::CounterRegisterFile counters(*db_, rng_.next_u64());
  counters.program(event_ids);

  MonitorResult result;
  std::vector<double> prev(event_ids.size(), 0.0);
  std::vector<double> now(event_ids.size());
  const std::vector<double> no_sample;  // the planner's view before sample 0
  const double busy_before = vm.total_busy_cycles();

  std::size_t t = 0;
  std::size_t sample = 0;
  while (t < base_slices) {
    std::size_t step = planner(
        sample, result.samples.empty() ? no_sample : result.samples.back());
    if (step < 1) step = 1;
    step = std::min(step, base_slices - t);
    // The victim's scheduling quantum is unchanged: the guest (and its
    // defense agent) see the same base slices; only the hypervisor defers
    // its counter read to the boundary the planner picked.
    for (std::size_t k = 0; k < step; ++k, ++t) {
      if (agent) agent(vm, t);
      if (source) vm.submit(source(t));
      counters.tick(vm.run_slice());
    }
    counters.read_all(now);
    result.samples.push_back(clamped_delta(now, prev));
    prev.swap(now);
    ++sample;
  }
  result.slices = result.samples.size();
  result.busy_cycles = vm.total_busy_cycles() - busy_before;
  return result;
}

// aegis-rng: stream(host-monitor-totals)
std::vector<double> HostMonitor::totals(VirtualMachine& vm,
                                        const BlockSource& source,
                                        const std::vector<std::uint32_t>& event_ids,
                                        std::size_t slices) {
  pmu::CounterRegisterFile counters(*db_, rng_.next_u64());
  counters.program(event_ids);
  for (std::size_t t = 0; t < slices; ++t) {
    if (source) vm.submit(source(t));
    counters.tick(vm.run_slice());
  }
  return counters.read_all();
}

// aegis-rng: stream(host-monitor-monitor-occupancy)
MonitorResult HostMonitor::monitor_occupancy(VirtualMachine& vm,
                                             const BlockSource& source,
                                             CacheProbe& probe,
                                             std::size_t slices,
                                             const SliceAgent& agent) {
  MonitorResult result;
  result.samples.reserve(slices);
  const double busy_before = vm.total_busy_cycles();
  for (std::size_t t = 0; t < slices; ++t) {
    if (agent) agent(vm, t);
    if (source) vm.submit(source(t));
    (void)vm.run_slice();
    // The attacker's sweep: measures and perturbs the shared caches.
    const double misses = probe.probe(vm.uarch());
    // Probe timing jitter (the attacker measures via a software timer).
    result.samples.push_back({misses + std::abs(rng_.normal(0.0, 2.0))});
  }
  result.slices = slices;
  result.busy_cycles = vm.total_busy_cycles() - busy_before;
  return result;
}

}  // namespace aegis::sim
