#include "attack/dataset.hpp"

#include <utility>

namespace aegis::attack {

trace::Trace collect_one(const pmu::EventDatabase& db,
                         const workload::Workload& secret,
                         const CollectionConfig& config, std::uint64_t visit_seed,
                         const sim::SliceAgent& agent) {
  sim::VirtualMachine vm(config.vm, visit_seed ^ 0xF00DULL);
  sim::HostMonitor monitor(db, visit_seed ^ 0xBEEFULL);
  sim::MonitorResult result = monitor.monitor_stepped(
      vm, secret.visit(visit_seed), config.event_ids, secret.trace_slices(),
      config.stepper ? config.stepper() : nullptr, agent);
  trace::Trace t;
  t.samples = std::move(result.samples);
  return t;
}

// aegis-rng: stream(dataset-collect-traces)
void for_each_run(const pmu::EventDatabase& db,
                  const std::vector<std::unique_ptr<workload::Workload>>& secrets,
                  const CollectionConfig& config,
                  const AgentFactory& agent_factory, const RunVisitor& visit) {
  util::Rng rng(config.seed);
  for (std::size_t s = 0; s < secrets.size(); ++s) {
    for (std::size_t v = 0; v < config.traces_per_secret; ++v) {
      const std::uint64_t visit_seed = rng.next_u64();
      sim::SliceAgent agent = agent_factory ? agent_factory() : sim::SliceAgent{};
      visit(s, collect_one(db, *secrets[s], config, visit_seed, agent));
    }
  }
}

trace::TraceSet collect_traces(
    const pmu::EventDatabase& db,
    const std::vector<std::unique_ptr<workload::Workload>>& secrets,
    const CollectionConfig& config, const AgentFactory& agent_factory) {
  trace::TraceSet set;
  set.num_classes = static_cast<int>(secrets.size());
  for_each_run(db, secrets, config, agent_factory,
               [&set](std::size_t secret, trace::Trace&& run) {
                 set.traces.push_back(std::move(run));
                 set.labels.push_back(static_cast<int>(secret));
               });
  return set;
}

}  // namespace aegis::attack
