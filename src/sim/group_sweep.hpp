// Group sweep: the trace-collection procedure behind warm-up filtering and
// MI ranking. A run monitors at most four events (paper Section V-B), so
// each stage runs its job list once per 4-event group, every job in a fresh
// VirtualMachine under a fresh HostMonitor (DESIGN.md "Group sweep").
// Noise calibration keeps only the job list (secret_jobs): it runs each job
// once and reads it through every group's register file
// (obf::calibrate_events).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pmu/event_database.hpp"
#include "sim/host_monitor.hpp"
#include "telemetry/span_tracer.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/workload.hpp"

namespace aegis::sim {

/// One monitored run: `workload` visited for `slices` sampling intervals.
struct SweepJob {
  const workload::Workload* workload = nullptr;
  std::size_t slices = 0;
};

/// `runs` jobs per secret, secret-major, at each secret's trace_slices().
/// Throws std::invalid_argument naming `caller` for no secret or no run.
inline std::vector<SweepJob> secret_jobs(
    const std::vector<std::unique_ptr<workload::Workload>>& secrets,
    std::size_t runs, const std::string& caller) {
  if (secrets.empty() || runs == 0) {
    throw std::invalid_argument(
        caller + ": needs at least one secret and one run per secret");
  }
  std::vector<SweepJob> jobs;
  for (const auto& secret : secrets) {
    jobs.insert(jobs.end(), runs,
                SweepJob{secret.get(), secret->trace_slices()});
  }
  return jobs;
}

struct SweepOptions {
  VmConfig vm;
  util::ThreadPool* pool = nullptr;  // null: groups run on the caller's thread
  telemetry::SpanTracer* spans = nullptr;  // set: one span per group, track g
  std::string_view group_span = {};
};

inline std::size_t sweep_group_count(std::size_t event_count) noexcept {
  constexpr std::size_t kGroup = pmu::EventDatabase::kNumCounters;
  return (event_count + kGroup - 1) / kGroup;
}

/// Splits `event_ids` into groups of EventDatabase::kNumCounters in order
/// (the last may be short). Group g draws only from the util::Rng
/// `stream(g)`: per job, in job order, the VM, monitor and visit seeds.
/// `map(result)` keeps what the stage needs of each job's MonitorResult (it
/// may move from it), so a group holds no more than that;
/// `reduce(group_events, mapped)` turns the mapped values, in job order,
/// into group g's slot, a std::vector. Slots concatenate in group order, so
/// the output is the same on any pool. No events: nothing runs and `reduce`
/// is never called.
// aegis-rng: stream(group-sweep)
template <typename Stream, typename Map, typename Reduce>
auto sweep_groups(const pmu::EventDatabase& db,
                  const std::vector<std::uint32_t>& event_ids,
                  const std::vector<SweepJob>& jobs, const Stream& stream,
                  const Map& map, const Reduce& reduce,
                  const SweepOptions& options = {}) {
  using Mapped = decltype(map(std::declval<MonitorResult&>()));
  using Slot =
      decltype(reduce(event_ids, std::declval<std::vector<Mapped>&>()));
  constexpr std::size_t kGroup = pmu::EventDatabase::kNumCounters;
  std::vector<Slot> slots(sweep_group_count(event_ids.size()));
  const auto run_group = [&](std::size_t g) {
    std::optional<telemetry::ScopedSpan> span;
    if (options.spans != nullptr) {
      span.emplace(*options.spans, options.group_span,
                   static_cast<std::uint32_t>(g));
    }
    const std::size_t base = g * kGroup;
    const std::vector<std::uint32_t> group(
        event_ids.begin() + static_cast<std::ptrdiff_t>(base),
        event_ids.begin() + static_cast<std::ptrdiff_t>(
                                std::min(event_ids.size(), base + kGroup)));
    util::Rng rng = stream(g);
    std::vector<Mapped> mapped;
    mapped.reserve(jobs.size());
    for (const SweepJob& job : jobs) {
      VirtualMachine vm(options.vm, rng.next_u64());
      HostMonitor monitor(db, rng.next_u64());
      MonitorResult result = monitor.monitor(
          vm, job.workload->visit(rng.next_u64()), group, job.slices);
      mapped.push_back(map(result));
    }
    slots[g] = reduce(group, mapped);
  };
  if (options.pool != nullptr) {
    options.pool->parallel_for(slots.size(), run_group);
  } else {
    for (std::size_t g = 0; g < slots.size(); ++g) run_group(g);
  }
  Slot merged;
  for (const Slot& slot : slots) {
    merged.insert(merged.end(), slot.begin(), slot.end());
  }
  return merged;
}

}  // namespace aegis::sim
