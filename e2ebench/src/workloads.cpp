#include "workloads.hpp"

#include <algorithm>

#include "probes.hpp"
#include "util/stats.hpp"

namespace e2ebench {

SetupTimes time_setups(const std::function<void(int)>& setup) {
  SetupTimes times;
  const auto first = Clock::now();
  for (int i = 0; i < kSetupRepeats || seconds_since(first) < kSetupMinSeconds;
       ++i) {
    const auto start = Clock::now();
    const double cpu_start = process_cpu_seconds();
    setup(i);
    times.cpu_s.push_back(process_cpu_seconds() - cpu_start);
    times.wall_s.push_back(seconds_since(start));
  }
  return times;
}

void record_setup(Result& result, const SetupTimes& times) {
  result.metric("setup_s", aegis::util::median(times.cpu_s), "s");
  result.metric("setup_wall_s", aegis::util::median(times.wall_s), "s");
}

std::vector<double> repeat_passes(const RunOptions& options,
                                  double nominal_pass_s,
                                  const std::function<double()>& pass) {
  const int count =
      options.trace ? 1
                    : std::max(1, static_cast<int>(options.seconds / nominal_pass_s));
  std::vector<double> times;
  for (int i = 0; i < count; ++i) times.push_back(pass());
  return times;
}

}  // namespace e2ebench
