// Trace collection: the attacker's offline template phase and online
// exploitation phase both reduce to "run a workload in a VM while the host
// samples 4 HPC events" (Section III-B). This module packages that loop.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "pmu/event_database.hpp"
#include "sim/host_monitor.hpp"
#include "trace/trace.hpp"
#include "workload/workload.hpp"

namespace aegis::attack {

/// Builds a fresh in-guest agent (e.g. an Event Obfuscator session) for one
/// workload execution. Null = undefended VM.
using AgentFactory = std::function<sim::SliceAgent()>;

/// Builds a fresh slice planner (see sim::SlicePlanner) for one workload
/// execution. Stateful planners (running-mean burst detectors) need fresh
/// state per run, so the sampler takes a factory, not a planner. Null =
/// passive fixed-cadence sampling.
using PlannerFactory = std::function<sim::SlicePlanner()>;

struct CollectionConfig {
  std::vector<std::uint32_t> event_ids;  // monitored events (4 in the paper)
  std::size_t traces_per_secret = 30;
  std::uint64_t seed = 42;
  sim::VmConfig vm;
  /// Attacker-chosen sampling boundaries (SEV-Step-style). Null keeps the
  /// paper's passive 1 ms cadence and is bit-identical to the plain monitor.
  PlannerFactory stepper;
};

/// Receives each monitored run with the index of its secret.
using RunVisitor = std::function<void(std::size_t secret, trace::Trace&& run)>;

/// Runs every secret's workload `traces_per_secret` times, secret-major,
/// and hands each monitored 4 x T trace to `visit` as soon as it is
/// collected, so a caller that reduces runs (attack training) never holds
/// them all.
void for_each_run(const pmu::EventDatabase& db,
                  const std::vector<std::unique_ptr<workload::Workload>>& secrets,
                  const CollectionConfig& config,
                  const AgentFactory& agent_factory, const RunVisitor& visit);

/// for_each_run into a TraceSet: every run, labelled with its secret index.
trace::TraceSet collect_traces(
    const pmu::EventDatabase& db,
    const std::vector<std::unique_ptr<workload::Workload>>& secrets,
    const CollectionConfig& config, const AgentFactory& agent_factory = nullptr);

/// Single-run variant used by the profiler and benches.
trace::Trace collect_one(const pmu::EventDatabase& db,
                         const workload::Workload& secret,
                         const CollectionConfig& config, std::uint64_t visit_seed,
                         const sim::SliceAgent& agent = nullptr);

}  // namespace aegis::attack
