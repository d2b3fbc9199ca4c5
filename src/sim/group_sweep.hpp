// Group sweep: the one trace-collection engine behind warm-up filtering, MI
// ranking and noise calibration. Real hardware reads at most four events
// per run (paper Section V-B), but the simulated guest does not depend on
// which counters read it. So the engine simulates each job exactly once and
// ticks one CounterRegisterFile per 4-event group from every slice, each
// with its own noise seed: every event keeps its own measurement noise and
// its own marginal distribution, and only the correlation across groups
// (which no stage reads) differs from running the job once per group
// (DESIGN.md "Group sweep"). Attack trace collection does not use this: an
// attacker pays one run per four events, so HostMonitor::monitor stays.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "pmu/counter_file.hpp"
#include "pmu/event_database.hpp"
#include "sim/host_monitor.hpp"
#include "sim/virtual_machine.hpp"
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
  util::ThreadPool* pool = nullptr;  // null: jobs run on the caller's thread
  /// For a sweep over part of a longer event list (a caller bounding its
  /// memory): the part's first group and the whole list's group count.
  /// Seeds are drawn for every group of the whole list, so each part reads
  /// the same runs, with the same noise, as one sweep over the whole list.
  /// 0 and 0: `event_ids` is the whole list.
  std::size_t first_group = 0;
  std::size_t total_groups = 0;
};

inline std::size_t sweep_group_count(std::size_t event_count) noexcept {
  constexpr std::size_t kGroup = pmu::EventDatabase::kNumCounters;
  return (event_count + kGroup - 1) / kGroup;
}

/// Runs every job once and streams it to a reader. `event_ids` splits into
/// groups of EventDatabase::kNumCounters in order (the last may be short),
/// one register file each. `rng` is drawn on the caller's thread before
/// any job runs, per job in job order: the VM seed, the visit seed, then
/// one noise seed per group of the whole list (see SweepOptions).
/// `make_reader(j)` builds job j's reader, also on the caller's thread and
/// in job order; the engine then calls
/// `reader.slice(t, delta)` for every slice t, where `delta` holds every
/// event's clamped count delta in event order (a buffer reused across
/// slices), and `reader.finish(totals)` once with the final cumulative
/// reads. Returns the readers in job order, so a caller's reduction over
/// them gives the same output on any pool. No events: nothing runs, `rng`
/// is not drawn and the result is empty.
// aegis-rng: stream(group-sweep)
template <typename MakeReader>
auto sweep_groups(const pmu::EventDatabase& db,
                  std::span<const std::uint32_t> event_ids,
                  const std::vector<SweepJob>& jobs, util::Rng rng,
                  const MakeReader& make_reader,
                  const SweepOptions& options = {}) {
  using Reader = decltype(make_reader(std::size_t{0}));
  std::vector<Reader> readers;
  if (event_ids.empty()) return readers;
  constexpr std::size_t kGroup = pmu::EventDatabase::kNumCounters;
  const std::size_t groups = sweep_group_count(event_ids.size());
  const std::size_t draws =
      2 + std::max(options.total_groups, options.first_group + groups);
  std::vector<std::uint64_t> seeds(jobs.size() * draws);
  for (std::uint64_t& seed : seeds) seed = rng.next_u64();
  readers.reserve(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    readers.push_back(make_reader(j));
  }

  const auto run_job = [&](std::size_t j) {
    const std::uint64_t* seed = &seeds[j * draws];
    VirtualMachine vm(options.vm, seed[0]);
    const BlockSource source = jobs[j].workload->visit(seed[1]);
    std::vector<pmu::CounterRegisterFile> counters;
    counters.reserve(groups);
    for (std::size_t g = 0; g < groups; ++g) {
      const std::size_t base = g * kGroup;
      const auto first = event_ids.begin() + static_cast<std::ptrdiff_t>(base);
      counters.emplace_back(db, seed[2 + options.first_group + g]);
      counters.back().program(std::vector<std::uint32_t>(
          first, first + static_cast<std::ptrdiff_t>(
                             std::min(kGroup, event_ids.size() - base))));
    }
    // Cumulative reads of the previous and the current slice, swapped each
    // slice, and the delta row handed to the reader.
    std::vector<double> prev(event_ids.size(), 0.0);
    std::vector<double> now(event_ids.size());
    std::vector<double> delta(event_ids.size());
    Reader& reader = readers[j];
    for (std::size_t t = 0; t < jobs[j].slices; ++t) {
      if (source) vm.submit(source(t));
      const pmu::ExecutionStats stats = vm.run_slice();
      std::size_t base = 0;
      for (pmu::CounterRegisterFile& file : counters) {
        file.tick(stats);
        const std::size_t width = file.programmed().size();
        file.read_all(std::span<double>(now).subspan(base, width));
        base += width;
      }
      for (std::size_t e = 0; e < delta.size(); ++e) {
        // Clamped at zero, as HostMonitor::monitor records it.
        delta[e] = std::max(now[e] - prev[e], 0.0);
      }
      reader.slice(t, std::span<const double>(delta));
      prev.swap(now);
    }
    reader.finish(std::span<const double>(prev));
  };
  if (options.pool != nullptr) {
    options.pool->parallel_for(jobs.size(), run_job);
  } else {
    for (std::size_t j = 0; j < jobs.size(); ++j) run_job(j);
  }
  return readers;
}

}  // namespace aegis::sim
