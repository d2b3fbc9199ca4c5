// Application Profiler (paper Section V): finds the HPC events that leak a
// given application's secrets.
//
// Two stages, both performed on a template server with host privileges:
//   * warm-up profiling — compares every available event's counts between
//     an idle guest and the running application (4 events per run, the
//     counter-register limit; repeated 5x to tame non-determinism) and
//     drops events with no change: less than 10 % of events survive;
//   * event ranking — per surviving event, collects m leakage traces per
//     customer-specified secret, compresses each trace to a scalar with
//     PCA, fits a per-secret Gaussian (Fig. 3) and scores the event by the
//     Eq. 1 mutual information between secret and feature value.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "pmu/event_database.hpp"
#include "sim/host_monitor.hpp"
#include "trace/gaussian.hpp"
#include "workload/workload.hpp"

namespace aegis::profiler {

struct ProfilerConfig {
  std::size_t warmup_slices = 120;      // t_w as monitoring slices
  std::size_t warmup_repeats = 5;       // paper: 5 repeated warm-up passes
  double warmup_rel_change = 0.30;      // median relative change to survive
  double warmup_abs_change = 30.0;      // and a minimum absolute change
  std::size_t ranking_runs_per_secret = 10;  // m (paper: 100)
  std::size_t feature_windows = 24;     // pre-PCA temporal pooling
  std::uint64_t seed = 11;
  sim::VmConfig vm;
  /// Executors for the warm-up and ranking group sweeps, the calling thread
  /// included (sim::sweep_groups; 0 = hardware concurrency). One shard per
  /// job; every job's seeds are drawn from the stage's stream before any
  /// job runs, so reports are bit-identical for every thread count.
  std::size_t num_threads = 0;
};

struct WarmupReport {
  std::vector<std::uint32_t> surviving;  // guest-activity-coupled events
  std::size_t total_events = 0;
  /// Per Table II type: [before, after] counts.
  std::array<std::size_t, pmu::kNumEventTypes> before_by_type{};
  std::array<std::size_t, pmu::kNumEventTypes> after_by_type{};
  double wall_seconds = 0.0;
};

struct EventRank {
  std::uint32_t event_id = 0;
  double mutual_information = 0.0;  // bits, Eq. 1
};

class ApplicationProfiler {
 public:
  ApplicationProfiler(const pmu::EventDatabase& db, ProfilerConfig config);

  /// Warm-up filtering of the full event list against one representative
  /// application run. Throws std::invalid_argument if warmup_repeats is 0.
  WarmupReport warmup(const workload::Workload& application);

  /// Ranks `event_ids` by Eq. 1 mutual information against the secret set
  /// (one workload per secret). Sorted descending. No events: an empty
  /// ranking. Throws std::invalid_argument for events with no secrets or
  /// ranking_runs_per_secret == 0.
  std::vector<EventRank> rank(
      const std::vector<std::unique_ptr<workload::Workload>>& secrets,
      const std::vector<std::uint32_t>& event_ids);

  /// Section VIII-A cost model: T_W = (M * t_w * 2) / C, in hours.
  static double warmup_time_hours(std::size_t total_events, double t_w_seconds,
                                  std::size_t counters);
  /// T_P = (N * S * runs * t_p) / C, in hours.
  static double ranking_time_hours(std::size_t surviving_events,
                                   std::size_t secrets, std::size_t runs,
                                   double t_p_seconds, std::size_t counters);

 private:
  const pmu::EventDatabase* db_;
  ProfilerConfig config_;
};

}  // namespace aegis::profiler
