// The benchmark's three workloads. Each derives its inputs from the run
// seed, times its set-up and its timed phase from outside the library,
// checks its outputs and records everything into a Result.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "report.hpp"
#include "util/rng.hpp"

namespace e2ebench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for files a run writes (service template caches).
  std::string workdir;
  /// Worker counts: set by main() from nproc, never 0.
  std::size_t analysis_workers = 1;
  std::size_t service_workers = 1;
};

/// Set-up runs at least this many times, and for at least this long, per
/// run; setup_s is the median.
inline constexpr int kSetupRepeats = 5;
inline constexpr double kSetupMinSeconds = 0.25;

/// Input seed of one named stream of the run.
inline std::uint64_t derive(const RunOptions& options, std::uint64_t stream) {
  return aegis::util::split_mix64(options.seed, stream);
}

/// Wall and CPU time of each set-up call.
struct SetupTimes {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
};

/// Runs `setup(i)` for i = 0, 1, ... as often as kSetupRepeats and
/// kSetupMinSeconds ask and returns the time of each call.
SetupTimes time_setups(const std::function<void(int)>& setup);

/// Records the gated setup_s (median CPU time of a set-up, as steady as
/// cpu_ms against steal time) and setup_wall_s (median wall time).
void record_setup(Result& result, const SetupTimes& times);

/// Runs `pass` (which returns its own timed seconds) as many times as
/// passes of `nominal_pass_s` fit in `options.seconds`, at least once; a
/// traced run makes one untraced pass only. The pass count depends on the
/// arguments alone, so every run of a workload does the same work.
/// Returns every pass time.
std::vector<double> repeat_passes(const RunOptions& options,
                                  double nominal_pass_s,
                                  const std::function<double()>& pass);

void run_offline_analysis(const RunOptions& options, Result& result);
void run_online_attack(const RunOptions& options, Result& result);
void run_service_open_loop(const RunOptions& options, Result& result);

struct WorkloadEntry {
  std::string_view name;
  void (*run)(const RunOptions&, Result&);
};

/// The workloads, by the names BENCHMARK.json declares.
inline constexpr WorkloadEntry kWorkloads[] = {
    {"offline_analysis", run_offline_analysis},
    {"online_attack", run_online_attack},
    {"service_open_loop", run_service_open_loop}};

}  // namespace e2ebench
